// Wildcard: a master/worker pool exercising the with-conflict machinery.
// The master posts long runs of identical receives (a compatible sequence,
// §III-D3a) and bursts of results arrive together, so the DPA threads all
// book the head of the sequence and resolve via the fast path — or via the
// slow path when it is disabled. The example prints which conflict-
// resolution paths fired.
package main

import (
	"flag"
	"fmt"
	"log"
	"sync"

	"repro/internal/bench"
	"repro/internal/mpi"
)

func main() {
	fastPath := flag.Bool("fastpath", true, "resolve conflicts on the fast path (false: slow path)")
	flag.Parse()

	const (
		workers = 8
		tasks   = 64 // per worker
	)

	// The fast path needs the all-threads-book-the-same-receive
	// precondition; model simultaneous handler activation and disable the
	// early booking shortcut (see core.Config).
	mcfg := bench.PaperMatcherConfig()
	mcfg.EarlyBookingCheck = false
	mcfg.SimultaneousArrival = true
	mcfg.DisableFastPath = !*fastPath

	world, err := mpi.NewWorld(workers+1, mpi.Options{
		Engine:  mpi.EngineOffload,
		Matcher: mcfg,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer world.Close()

	const (
		taskTag   = 1
		resultTag = 2
	)

	var wg sync.WaitGroup
	for w := 1; w <= workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := world.Proc(w).World()
			buf := make([]byte, 8)
			for t := 0; t < tasks; t++ {
				st, err := c.Recv(0, taskTag, buf)
				if err != nil {
					log.Fatalf("worker %d: %v", w, err)
				}
				// "Compute": double each byte, send the result back. All
				// results share (source→0 is per-worker, tag=resultTag).
				out := make([]byte, st.Count)
				for i := 0; i < st.Count; i++ {
					out[i] = buf[i] * 2
				}
				if err := c.Send(0, resultTag, out); err != nil {
					log.Fatalf("worker %d: %v", w, err)
				}
			}
		}(w)
	}

	master := world.Proc(0).World()

	// The master posts ALL result receives up front with AnySource and one
	// tag: a single long compatible sequence in the source-wildcard index.
	results := make([]*mpi.Request, 0, workers*tasks)
	bufs := make([][]byte, workers*tasks)
	for i := range bufs {
		bufs[i] = make([]byte, 8)
		req, err := master.Irecv(mpi.AnySource, resultTag, bufs[i])
		if err != nil {
			log.Fatal(err)
		}
		results = append(results, req)
	}

	// Scatter tasks round-robin.
	for t := 0; t < tasks; t++ {
		for w := 1; w <= workers; w++ {
			payload := []byte{byte(t), byte(w), 3, 4, 5, 6, 7, 8}
			if err := master.Send(w, taskTag, payload); err != nil {
				log.Fatal(err)
			}
		}
	}
	if err := mpi.Waitall(results...); err != nil {
		log.Fatal(err)
	}
	wg.Wait()

	checked := 0
	for _, b := range bufs {
		if b[2] != 6 { // 3*2
			log.Fatalf("result corrupted: %v", b)
		}
		checked++
	}

	st := world.Proc(0).Matcher().Stats()
	fmt.Printf("wildcard master/worker: %d results verified\n\n", checked)
	fmt.Printf("master matcher statistics (fast path %v):\n", *fastPath)
	fmt.Printf("  messages    %6d\n  blocks      %6d\n", st.Messages, st.Blocks)
	fmt.Printf("  optimistic  %6d\n  conflicts   %6d\n", st.Optimistic, st.Conflicts)
	fmt.Printf("  fast path   %6d\n  slow path   %6d\n", st.FastPath, st.SlowPath)
	fmt.Println("\nRe-run with -fastpath=false to force the §III-D3b slow path.")
}

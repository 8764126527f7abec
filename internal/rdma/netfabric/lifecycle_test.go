package netfabric

import (
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/rdma"
)

// TestClosedTransportCollectedByOneGC pins that a closed transport is
// garbage at the first collection after Close. A pool embedded by value in
// the transport registers itself with the runtime through a pointer into
// the transport, which keeps its wires, tables and queues reachable until
// the second collection; the transport holds its pool by pointer so that
// it does not.
func TestClosedTransportCollectedByOneGC(t *testing.T) {
	for _, network := range []string{"tcp", "shm"} {
		t.Run(network, func(t *testing.T) {
			base := runtime.NumGoroutine()
			collected := make(chan int, 2)
			oneMessagePair(t, network, collected)
			// Close waits for the wires' goroutines; let them exit too, so
			// no goroutine stack still points into a transport.
			for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			runtime.GC()
			for range 2 {
				select {
				case <-collected:
				case <-time.After(2 * time.Second):
					t.Fatal("a closed transport is still reachable after one GC")
				}
			}
		})
	}
}

// oneMessagePair builds a 2-rank job of network, sends one message to a
// peer and one to self, closes both transports, and arranges for each to
// report on done when it is collected.
func oneMessagePair(t *testing.T, network string, done chan int) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ServeCoordinator(ln, 2)
	dir := t.TempDir()
	trs := make([]rdma.Transport, 2)
	cqs := []*rdma.CQ{rdma.NewCQ(), rdma.NewCQ()}
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for k := range trs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := Config{Network: network, Rank: k, Ranks: 2, Coord: ln.Addr().String(), ShmDir: dir}
			if trs[k], errs[k] = New(cfg); errs[k] == nil {
				errs[k] = trs[k].Start(rdma.NewBounceQueue(8, 256), cqs[k])
			}
		}()
	}
	wg.Wait()
	ln.Close()
	for k, tr := range trs {
		if errs[k] != nil {
			t.Fatalf("rank %d: %v", k, errs[k])
		}
		runtime.AddCleanup(tr.(*transport), func(k int) { done <- k }, k)
	}
	for _, src := range []int{0, 1} {
		if err := trs[src].Endpoint(1).Send([]byte("one msg!"), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	var c [2]rdma.Completion
	for got := uint64(0); got < 2; {
		n, _ := cqs[1].WaitBatch(got, c[:])
		got += uint64(n)
	}
	for _, tr := range trs {
		tr.Close()
	}
}

package mpi

import (
	"errors"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// TestRequestCompletionRace races every way of observing a request against
// two completers with different statuses and, in the close variant, against
// World.Close. Exactly one completer's status may be published, every waiter
// sees it whole (or ErrClosed once the world closes), and nothing the
// waiters started outlives them. Run it under -race -cpu 1,2,4.
func TestRequestCompletionRace(t *testing.T) {
	const rounds, waiters = 200, 8
	first := Status{Source: 1, Tag: 11, Count: 111}
	second := Status{Source: 2, Tag: 22, Count: 222}
	errSecond := errors.New("second completer")

	for _, withClose := range []bool{false, true} {
		name := "complete"
		if withClose {
			name = "complete+close"
		}
		t.Run(name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			for round := 0; round < rounds; round++ {
				w, err := NewWorld(2, Options{})
				if err != nil {
					t.Fatal(err)
				}
				r := newRequest(w.Proc(0))
				type seen struct {
					st  Status
					err error
				}
				got := make(chan seen, 3*waiters)
				var wg sync.WaitGroup
				start := make(chan struct{})
				for i := 0; i < waiters; i++ {
					wg.Add(3)
					go func() {
						defer wg.Done()
						<-start
						st, err := r.Wait()
						got <- seen{st, err}
					}()
					go func() {
						defer wg.Done()
						<-start
						for {
							if st, ok, err := r.Test(); ok {
								got <- seen{st, err}
								return
							}
							runtime.Gosched()
						}
					}()
					go func() {
						defer wg.Done()
						<-start
						<-r.wakeChan()
						st, _, err := r.Test()
						got <- seen{st, err}
					}()
				}
				wg.Add(2)
				go func() { defer wg.Done(); <-start; r.complete(first, nil) }()
				go func() { defer wg.Done(); <-start; r.complete(second, errSecond) }()
				if withClose {
					wg.Add(1)
					go func() { defer wg.Done(); <-start; w.Close() }()
				}
				close(start)
				wg.Wait()
				close(got)

				want, ok, wantErr := r.Test()
				if !ok {
					t.Fatal("request incomplete after both completers returned")
				}
				switch {
				case want == first && wantErr == nil:
				case want == second && wantErr == errSecond:
				default:
					t.Fatalf("round %d: published status %+v, %v is neither completer's", round, want, wantErr)
				}
				for s := range got {
					if withClose && errors.Is(s.err, ErrClosed) && s.st == (Status{}) {
						continue
					}
					if s.st != want || s.err != wantErr {
						t.Fatalf("round %d: a waiter saw %+v, %v; the winner published %+v, %v",
							round, s.st, s.err, want, wantErr)
					}
				}
				w.Close()
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > base {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after the rounds, %d before", runtime.NumGoroutine(), base)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// TestRequestSize pins the request to the 64-byte size class, an early
// waiter to one channel, and an eager Isend in steady state to that one
// object: the request is born complete and the send path allocates nothing
// else.
func TestRequestSize(t *testing.T) {
	if sz := unsafe.Sizeof(Request{}); sz > 64 {
		t.Fatalf("Request is %d B, want at most 64", sz)
	}
	// A waiter that arrives first adds its channel and nothing else.
	if allocs := testing.AllocsPerRun(100, func() {
		r := newRequest(nil)
		r.wakeChan()
		r.complete(Status{}, nil)
	}); allocs != 2 {
		t.Fatalf("a request with an early waiter allocates %.0f times, want 2 (request, channel)", allocs)
	}
	if raceEnabled {
		t.Skip("sync.Pool drops under the race detector: no exact count")
	}
	w, err := NewWorld(2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	snd, rcv := w.Proc(0).World(), w.Proc(1).World()
	const batch, batches = 100, 100
	payload := make([]byte, 64)
	bufs := make([][]byte, batch)
	for i := range bufs {
		bufs[i] = make([]byte, len(payload))
	}
	sends := make([]*Request, 0, batch+1)
	recvs := make([]*Request, 0, batch+1)
	post := func(n int) {
		recvs = recvs[:0]
		for i := 0; i < n; i++ {
			req, err := rcv.Irecv(0, 7, bufs[i%batch])
			if err != nil {
				t.Fatal(err)
			}
			recvs = append(recvs, req)
		}
		sends = sends[:0]
	}
	isend := func() {
		req, err := snd.Isend(1, 7, payload)
		if err != nil {
			t.Fatal(err)
		}
		sends = append(sends, req)
	}
	drain := func() {
		if err := Waitall(sends...); err != nil {
			t.Fatal(err)
		}
		if err := Waitall(recvs...); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the pools and the arrival path, then keep the collector from
	// emptying them in the middle of a measurement.
	for i := 0; i < 3; i++ {
		post(batch)
		for j := 0; j < batch; j++ {
			isend()
		}
		drain()
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	post(batch + 1) // AllocsPerRun makes one warm-up call
	if allocs := testing.AllocsPerRun(batch, isend); allocs != 1 {
		t.Fatalf("an eager Isend allocates %.0f times, want 1 (its request)", allocs)
	}
	drain()

	var before, after runtime.MemStats
	var mallocs, bytes uint64
	for b := 0; b < batches; b++ {
		post(batch)
		runtime.ReadMemStats(&before)
		for j := 0; j < batch; j++ {
			isend()
		}
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
		bytes += after.TotalAlloc - before.TotalAlloc
		drain()
	}
	n := uint64(batch * batches)
	if mallocs > n+n/100 || bytes > 64*n+64*n/100 {
		t.Fatalf("%d eager sends allocated %d objects, %d B; want one object of at most 64 B each", n, mallocs, bytes)
	}
}

package mpi

import (
	"runtime"
	"testing"
	"time"
)

// TestClosedWorldCollectedByOneGC pins that a closed world is garbage at
// the first collection after Close. A pool embedded by value in a world
// registers itself with the runtime through a pointer into the world, which
// keeps procs, matchers, queues and bounce slabs reachable until the second
// collection; the world holds its pools by pointer so that it does not.
func TestClosedWorldCollectedByOneGC(t *testing.T) {
	for _, engine := range []EngineKind{EngineHost, EngineOffload} {
		t.Run(engine.String(), func(t *testing.T) {
			base := runtime.NumGoroutine()
			collected := make(chan struct{})
			oneMessageWorld(t, engine, collected)
			// Close waits for the world's loops; let them exit too, so no
			// goroutine stack still points into the world.
			for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			runtime.GC()
			select {
			case <-collected:
			case <-time.After(2 * time.Second):
				t.Fatal("a closed world is still reachable after one GC")
			}
		})
	}
}

// oneMessageWorld builds a 2-rank world, sends one message through it,
// closes it, and arranges for done to close when the world is collected.
func oneMessageWorld(t *testing.T, engine EngineKind, done chan struct{}) {
	w, err := NewWorld(2, daemonDefaultOptions(engine))
	if err != nil {
		t.Fatal(err)
	}
	runtime.AddCleanup(w, func(ch chan struct{}) { close(ch) }, done)
	var buf [8]byte
	req, err := w.Proc(1).World().Irecv(0, 7, buf[:])
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Proc(0).World().Send(1, 7, []byte("one msg!")); err != nil {
		t.Fatal(err)
	}
	if _, err := req.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

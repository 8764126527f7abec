package mpi

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/rdma"
)

// TestCloseIdempotent pins re-Close behavior: the first Close returns nil,
// every later one returns ErrClosed without touching the (already torn
// down) world.
func TestCloseIdempotent(t *testing.T) {
	for _, engine := range []EngineKind{EngineHost, EngineOffload, EngineRaw} {
		w, err := NewWorld(2, Options{Engine: engine})
		if err != nil {
			t.Fatalf("%v: NewWorld: %v", engine, err)
		}
		if w.Closed() {
			t.Fatalf("%v: world reports closed before Close", engine)
		}
		if err := w.Close(); err != nil {
			t.Fatalf("%v: first Close: %v", engine, err)
		}
		if !w.Closed() {
			t.Fatalf("%v: world not closed after Close", engine)
		}
		for i := 0; i < 3; i++ {
			if err := w.Close(); !errors.Is(err, ErrClosed) {
				t.Fatalf("%v: re-Close %d: got %v, want ErrClosed", engine, i, err)
			}
		}
	}
}

// TestPostCloseOpsReturnErrClosed pins the post-Close surface: every
// point-to-point entry point returns ErrClosed instead of hanging on dead
// engines or panicking on closed queues.
func TestPostCloseOpsReturnErrClosed(t *testing.T) {
	for _, engine := range []EngineKind{EngineHost, EngineOffload, EngineRaw} {
		w, err := NewWorld(2, Options{Engine: engine})
		if err != nil {
			t.Fatalf("%v: NewWorld: %v", engine, err)
		}
		c := w.Proc(0).World()
		if err := w.Close(); err != nil {
			t.Fatalf("%v: Close: %v", engine, err)
		}

		buf := make([]byte, 8)
		if _, err := c.Isend(1, 1, buf); !errors.Is(err, ErrClosed) {
			t.Errorf("%v: post-Close Isend: got %v, want ErrClosed", engine, err)
		}
		if err := c.Send(1, 1, buf); !errors.Is(err, ErrClosed) {
			t.Errorf("%v: post-Close Send: got %v, want ErrClosed", engine, err)
		}
		if _, err := c.Irecv(1, 1, buf); !errors.Is(err, ErrClosed) {
			t.Errorf("%v: post-Close Irecv: got %v, want ErrClosed", engine, err)
		}
		if _, err := c.Recv(1, 1, buf); !errors.Is(err, ErrClosed) {
			t.Errorf("%v: post-Close Recv: got %v, want ErrClosed", engine, err)
		}
		if err := c.Barrier(); !errors.Is(err, ErrClosed) {
			t.Errorf("%v: post-Close Barrier: got %v, want ErrClosed", engine, err)
		}
		// Rendezvous-sized payloads take the RTS path; it must be pinned too.
		big := make([]byte, 64<<10)
		if _, err := c.Isend(1, 1, big); !errors.Is(err, ErrClosed) {
			t.Errorf("%v: post-Close rendezvous Isend: got %v, want ErrClosed", engine, err)
		}
	}
}

// TestCloseUnblocksPendingWait pins cancellation: a receive blocked in Wait
// when the world closes returns ErrClosed in bounded time instead of
// hanging on a request that will never complete.
func TestCloseUnblocksPendingWait(t *testing.T) {
	for _, engine := range []EngineKind{EngineHost, EngineOffload} {
		w, err := NewWorld(2, Options{Engine: engine})
		if err != nil {
			t.Fatalf("%v: NewWorld: %v", engine, err)
		}
		c := w.Proc(0).World()
		req, err := c.Irecv(1, 42, make([]byte, 8)) // nothing will ever send tag 42
		if err != nil {
			t.Fatalf("%v: Irecv: %v", engine, err)
		}
		errCh := make(chan error, 1)
		go func() {
			_, err := req.Wait()
			errCh <- err
		}()
		// Give the waiter a moment to block, then pull the world down.
		time.Sleep(10 * time.Millisecond)
		if err := w.Close(); err != nil {
			t.Fatalf("%v: Close: %v", engine, err)
		}
		select {
		case err := <-errCh:
			if !errors.Is(err, ErrClosed) {
				t.Errorf("%v: pending Wait: got %v, want ErrClosed", engine, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%v: pending Wait still blocked 5s after Close", engine)
		}
	}
}

// failTransport is an rdma.Transport whose Start fails (or whose rank is
// out of range): the receive path never attaches, so only Close matters.
type failTransport struct {
	rdma.Transport // nil: any call but the ones below is a test bug
	rank           int
	closes         int
}

func (f *failTransport) Rank() int                             { return f.rank }
func (f *failTransport) Size() int                             { return 2 }
func (f *failTransport) Reliable() bool                        { return true }
func (f *failTransport) Endpoint(int) rdma.Endpoint            { return nil }
func (f *failTransport) Start(*rdma.RecvQueue, *rdma.CQ) error { return errors.New("start refused") }
func (f *failTransport) Close() error                          { f.closes++; return nil }

// TestNewNetWorldClosesTransportOnFailure pins ownership: NewNetWorld owns
// the transport it is handed, so a failing return must close it exactly
// once and leave no engine goroutine (the offload engine's DPA workers
// exist before Start) behind.
func TestNewNetWorldClosesTransportOnFailure(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, tc := range []struct {
		name string
		rank int
		opts Options
	}{
		{"start-fails-host", 0, Options{Engine: EngineHost}},
		{"start-fails-offload", 0, Options{Engine: EngineOffload}},
		{"start-fails-raw", 1, Options{Engine: EngineRaw}},
		{"rank-out-of-range", 2, Options{}},
		{"engine-setup-fails", 0, Options{Engine: EngineKind(99)}},
	} {
		tr := &failTransport{rank: tc.rank}
		if w, err := NewNetWorld(tr, tc.opts); err == nil {
			w.Close()
			t.Fatalf("%s: NewNetWorld succeeded", tc.name)
		}
		if tr.closes != 1 {
			t.Errorf("%s: transport closed %d times, want 1", tc.name, tr.closes)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

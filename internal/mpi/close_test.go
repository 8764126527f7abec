package mpi

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dpa"
	"repro/internal/obs"
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

// TestNewNetWorldClosesTransportOnFailure pins ownership on every failing
// return of the one constructor body, through both constructors: the world
// owns the transports it is built on, so each is closed exactly once, and
// nothing a rank started before the failure — the offload engine's DPA
// workers exist before Start — is left behind.
func TestNewNetWorldClosesTransportOnFailure(t *testing.T) {
	bigTables := core.DefaultConfig()
	bigTables.Bins = 1 << 19
	failures := []struct {
		name    string
		opts    Options
		refuses bool // the options are buildable: it is Start that fails
	}{
		{"start-refused-host", Options{Engine: EngineHost}, true},
		{"start-refused-offload", Options{Engine: EngineOffload}, true},
		{"start-refused-raw", Options{Engine: EngineRaw}, true},
		{"unknown-engine", Options{Engine: EngineKind(99)}, false},
		{"block-exceeds-threads", Options{Engine: EngineOffload, DPA: dpa.Config{Threads: 8}}, false},
		{"tables-exceed-dpa-memory", Options{Engine: EngineOffload, Matcher: bigTables}, false},
	}
	// NewWorld builds its own fabric, whose Start cannot refuse: its
	// start-refused rows put a refusing transport behind a fabric rank that
	// has already been built and started.
	constructors := []struct {
		name  string
		build func(opts Options, refuses bool) (*World, *failTransport, error)
	}{
		{"NewWorld", func(opts Options, refuses bool) (*World, *failTransport, error) {
			if !refuses {
				w, err := NewWorld(2, opts)
				return w, nil, err
			}
			tr := &failTransport{rank: 1}
			w, err := attach([]rdma.Transport{rdma.NewFabric().Ranks(2)[0], tr}, opts)
			return w, tr, err
		}},
		{"NewNetWorld", func(opts Options, _ bool) (*World, *failTransport, error) {
			tr := &failTransport{rank: 0}
			w, err := NewNetWorld(tr, opts)
			return w, tr, err
		}},
	}
	before := runtime.NumGoroutine()
	for _, c := range constructors {
		for _, f := range failures {
			w, tr, err := c.build(f.opts, f.refuses)
			if err == nil {
				w.Close()
				t.Fatalf("%s/%s: succeeded", c.name, f.name)
			}
			if tr != nil && tr.closes != 1 {
				t.Errorf("%s/%s: transport closed %d times, want 1", c.name, f.name, tr.closes)
			}
		}
	}
	tr := &failTransport{rank: 2}
	if w, err := NewNetWorld(tr, Options{}); err == nil {
		w.Close()
		t.Fatal("rank out of range: NewNetWorld succeeded")
	} else if tr.closes != 1 {
		t.Errorf("rank out of range: transport closed %d times, want 1", tr.closes)
	}
	expectGoroutines(t, before)
}

// expectGoroutines fails the test unless the goroutine count settles back to
// before within two seconds.
func expectGoroutines(t *testing.T, before int) {
	t.Helper()
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

// TestFailedReadStillAcknowledges: a rendezvous READ that fails completes
// the receive with the READ's error and still acknowledges, so the sender's
// request, which completes on the ACK alone, is not left pending until
// Close. The region is withdrawn before the receive is posted, which is
// what a sender's death looks like from the receiver.
func TestFailedReadStillAcknowledges(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, engine := range []EngineKind{EngineHost, EngineOffload} {
		w, err := NewWorld(2, Options{Engine: engine, EagerLimit: 256})
		if err != nil {
			t.Fatalf("%v: NewWorld: %v", engine, err)
		}
		snd, rcv := w.Proc(0), w.Proc(1)
		sreq, err := snd.World().Isend(1, 7, make([]byte, 4096))
		if err != nil {
			t.Fatalf("%v: Isend: %v", engine, err)
		}
		snd.pendMu.Lock()
		for _, ps := range snd.pending {
			snd.trans.Deregister(ps.mr)
		}
		pending := len(snd.pending)
		snd.pendMu.Unlock()
		if pending != 1 {
			t.Fatalf("%v: %d rendezvous sends pending, want 1", engine, pending)
		}
		rreq, err := rcv.World().Irecv(0, 7, make([]byte, 4096))
		if err != nil {
			t.Fatalf("%v: Irecv: %v", engine, err)
		}
		// wait is req.Wait with a bound: a blocked Wait is the failure.
		wait := func(who string, req *Request) error {
			done := make(chan error, 1)
			go func() { _, err := req.Wait(); done <- err }()
			select {
			case err := <-done:
				return err
			case <-time.After(5 * time.Second):
				t.Fatalf("%v: %s's Wait is blocked", engine, who)
				return nil
			}
		}
		if err := wait("receiver", rreq); !errors.Is(err, rdma.ErrBadKey) {
			t.Fatalf("%v: receiver's Wait: %v, want ErrBadKey", engine, err)
		}
		if err := wait("sender", sreq); err != nil {
			t.Fatalf("%v: sender's Wait: %v", engine, err)
		}
		if n := rcv.Obs().Hist(obs.HistRendezvousReadNs).Count; n != 1 {
			t.Errorf("%v: %d rendezvous READs timed, want 1", engine, n)
		}
		w.Close()
	}
	expectGoroutines(t, before)
}

// TestPeerLostCompletionDropped: a transport reports a lost peer as an
// error completion with no buffer (rdma.ErrPeerLost, the rank in Imm).
// Every engine's arrival path must drop it without reposting: a nil buffer
// in the bounce pool would swallow a later message as too large for it.
// Every message after the report, twice the pool's depth, still arrives.
func TestPeerLostCompletionDropped(t *testing.T) {
	const depth = 4
	for _, engine := range []EngineKind{EngineHost, EngineOffload} {
		w, err := NewWorld(2, Options{Engine: engine, RecvDepth: depth})
		if err != nil {
			t.Fatalf("%v: NewWorld: %v", engine, err)
		}
		w.Proc(1).rawCQ.Push(rdma.Completion{Op: rdma.OpRecv, Err: rdma.ErrPeerLost, Imm: 0})
		done := make(chan error, 1)
		go func() {
			snd, rcv := w.Proc(0).World(), w.Proc(1).World()
			for i := 0; i < 2*depth; i++ {
				if err := snd.Send(1, i, []byte{byte(i)}); err != nil {
					done <- err
					return
				}
				buf := make([]byte, 1)
				if _, err := rcv.Recv(0, i, buf); err != nil || buf[0] != byte(i) {
					done <- fmt.Errorf("message %d: %v, got %d", i, err, buf[0])
					return
				}
			}
			done <- nil
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%v: %v", engine, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%v: a message after the loss report never arrived", engine)
		}
		w.Close()
	}
}

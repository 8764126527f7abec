package mpi

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestIprobe(t *testing.T) {
	for _, kind := range matchingEngines() {
		t.Run(kind.String(), func(t *testing.T) {
			w := newTestWorld(t, 2, kind)
			c := w.Proc(1).World()

			// Nothing there yet.
			if _, ok, err := c.Iprobe(0, 5); err != nil || ok {
				t.Fatalf("empty probe: ok=%v err=%v", ok, err)
			}

			// An unexpected eager message becomes probeable.
			if err := w.Proc(0).World().Send(1, 5, []byte("probe-me")); err != nil {
				t.Fatal(err)
			}
			st, err := c.Probe(0, 5)
			if err != nil {
				t.Fatal(err)
			}
			if st.Source != 0 || st.Tag != 5 || st.Count != 8 {
				t.Fatalf("probe status = %+v", st)
			}

			// Probing does not consume: probing again still succeeds, and the
			// message is still receivable.
			if _, ok, err := c.Iprobe(AnySource, AnyTag); err != nil || !ok {
				t.Fatalf("re-probe: ok=%v err=%v", ok, err)
			}
			buf := make([]byte, 16)
			if st, err := c.Recv(0, 5, buf); err != nil || string(buf[:st.Count]) != "probe-me" {
				t.Fatalf("recv after probe: %v %q", err, buf[:st.Count])
			}
			// Consumed now.
			if _, ok, _ := c.Iprobe(0, 5); ok {
				t.Fatal("probe found a consumed message")
			}
		})
	}
}

func TestIprobeRendezvousCount(t *testing.T) {
	w := newTestWorld(t, 2, EngineOffload)
	big := make([]byte, 50_000)
	done := make(chan error, 1)
	go func() { done <- w.Proc(0).World().Send(1, 9, big) }()

	c := w.Proc(1).World()
	st, err := c.Probe(0, 9)
	if err != nil {
		t.Fatal(err)
	}
	if st.Count != len(big) {
		t.Fatalf("probe count = %d, want %d (RTS carries the full size)", st.Count, len(big))
	}
	buf := make([]byte, len(big))
	if _, err := c.Recv(0, 9, buf); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestIprobeValidation(t *testing.T) {
	w := newTestWorld(t, 2, EngineHost)
	c := w.Proc(0).World()
	if _, _, err := c.Iprobe(9, 0); err == nil {
		t.Error("bad source accepted")
	}
	if _, _, err := c.Iprobe(0, -3); err == nil {
		t.Error("negative tag accepted")
	}
}

func TestIprobeRawUnsupported(t *testing.T) {
	w := newTestWorld(t, 2, EngineRaw)
	if _, _, err := w.Proc(0).World().Iprobe(1, 0); err != ErrProbeUnsupported {
		t.Fatalf("err = %v, want ErrProbeUnsupported", err)
	}
}

func TestIprobeFallbackComm(t *testing.T) {
	w := infoWorld(t, map[int32]CommInfo{3: {NoOffload: true}}, nil)
	if err := w.Proc(0).Comm(3).Send(1, 2, []byte("sw")); err != nil {
		t.Fatal(err)
	}
	st, err := w.Proc(1).Comm(3).Probe(0, 2)
	if err != nil || st.Count != 2 {
		t.Fatalf("fallback probe: %+v %v", st, err)
	}
	buf := make([]byte, 4)
	if _, err := w.Proc(1).Comm(3).Recv(0, 2, buf); err != nil {
		t.Fatal(err)
	}
}

// TestIprobeRacesRecv: a probe on one goroutine and receives on another of
// the same rank share the unexpected store. Whatever a hit reports was
// copied out under the store's lock, so it names a message that was sent
// (tag t carries t+1 bytes), never the envelope a receive recycled meanwhile.
func TestIprobeRacesRecv(t *testing.T) {
	const msgs, tags = 2000, 7
	worlds := map[string]func(*testing.T) (snd, rcv Comm){
		"host": func(t *testing.T) (Comm, Comm) {
			w := newTestWorld(t, 2, EngineHost)
			return w.Proc(0).World(), w.Proc(1).World()
		},
		"offload": func(t *testing.T) (Comm, Comm) {
			w := newTestWorld(t, 2, EngineOffload)
			return w.Proc(0).World(), w.Proc(1).World()
		},
		"fallback": func(t *testing.T) (Comm, Comm) {
			w := infoWorld(t, map[int32]CommInfo{3: {NoOffload: true}}, nil)
			return w.Proc(0).Comm(3), w.Proc(1).Comm(3)
		},
	}
	for name, build := range worlds {
		t.Run(name, func(t *testing.T) {
			snd, rcv := build(t)
			var wg sync.WaitGroup
			defer wg.Wait()
			wg.Add(1)
			go func() {
				defer wg.Done()
				payload := make([]byte, tags+1)
				for i := 0; i < msgs; i++ {
					tag := 1 + i%tags
					if err := snd.Send(1, tag, payload[:tag+1]); err != nil {
						t.Errorf("send %d: %v", i, err)
						return
					}
				}
			}()
			// Receives start at the first hit: the store is non-empty then.
			first, done := make(chan struct{}), make(chan struct{})
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer close(done)
				<-first
				buf := make([]byte, tags+1)
				for i := 0; i < msgs; i++ {
					req, err := rcv.Irecv(AnySource, AnyTag, buf)
					if err == nil {
						_, err = req.Wait()
					}
					if err != nil {
						t.Errorf("receive %d: %v", i, err)
						return
					}
				}
			}()
			hits := 0
			defer func() {
				if hits == 0 {
					close(first) // failed before any hit: let the receives drain
				}
			}()
			for {
				st, ok, err := rcv.Iprobe(AnySource, AnyTag)
				if err != nil {
					t.Fatal(err)
				}
				if ok {
					if st.Source != 0 || st.Tag < 1 || st.Tag > tags || st.Count != st.Tag+1 {
						t.Fatalf("hit %d reports %+v, which no send produced", hits, st)
					}
					if hits++; hits == 1 {
						close(first)
					}
				}
				select {
				case <-done:
					return
				default:
					runtime.Gosched()
				}
			}
		})
	}
}

// TestProbeUnblocksOnClose: a Probe still waiting when the world closes
// returns ErrClosed and its goroutine ends, as a pending Wait does.
func TestProbeUnblocksOnClose(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, engine := range matchingEngines() {
		w, err := NewWorld(2, Options{Engine: engine})
		if err != nil {
			t.Fatalf("%v: NewWorld: %v", engine, err)
		}
		errCh := make(chan error, 1)
		go func() {
			_, err := w.Proc(0).World().Probe(1, 42) // nothing will ever send tag 42
			errCh <- err
		}()
		time.Sleep(10 * time.Millisecond) // let the probe settle into its backoff
		if err := w.Close(); err != nil {
			t.Fatalf("%v: Close: %v", engine, err)
		}
		select {
		case err := <-errCh:
			if !errors.Is(err, ErrClosed) {
				t.Errorf("%v: pending Probe: got %v, want ErrClosed", engine, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%v: pending Probe still polling 5s after Close", engine)
		}
		if _, _, err := w.Proc(0).World().Iprobe(1, 42); !errors.Is(err, ErrClosed) {
			t.Errorf("%v: post-Close Iprobe: got %v, want ErrClosed", engine, err)
		}
	}
	expectGoroutines(t, before)
}

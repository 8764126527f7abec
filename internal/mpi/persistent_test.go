package mpi

import (
	"testing"
)

func TestPersistentRequests(t *testing.T) {
	for _, kind := range matchingEngines() {
		t.Run(kind.String(), func(t *testing.T) {
			w := newTestWorld(t, 2, kind)
			const rounds = 10

			buf := make([]byte, 8)
			precv, err := w.Proc(1).World().RecvInit(0, 4, buf)
			if err != nil {
				t.Fatal(err)
			}
			payload := make([]byte, 8)

			for round := 0; round < rounds; round++ {
				payload[0] = byte(round)
				rreq, err := precv.Start()
				if err != nil {
					t.Fatal(err)
				}
				sreq, err := w.Proc(0).World().Isend(1, 4, payload)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := sreq.Wait(); err != nil {
					t.Fatal(err)
				}
				st, err := rreq.Wait()
				if err != nil {
					t.Fatal(err)
				}
				if st.Count != 8 || buf[0] != byte(round) {
					t.Fatalf("round %d: got %v (%+v)", round, buf[0], st)
				}
			}
			// Persistent receives with constant (source, tag) form compatible
			// sequences; on the offload engine they flow conflict-free.
			if kind == EngineOffload {
				if st := w.Proc(1).Matcher().Stats(); st.Messages == 0 {
					t.Fatal("persistent traffic bypassed the matcher")
				}
			}
		})
	}
}

func TestPersistentValidation(t *testing.T) {
	w := newTestWorld(t, 2, EngineHost)
	c := w.Proc(0).World()
	if _, err := c.RecvInit(9, 0, nil); err == nil {
		t.Error("bad src accepted")
	}
	if _, err := c.RecvInit(0, -2, nil); err == nil {
		t.Error("negative tag accepted")
	}
	pr, err := c.RecvInit(1, 1, make([]byte, 4))
	if err != nil {
		t.Fatal(err)
	}
	req, err := pr.Start()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pr.Start(); err == nil {
		t.Error("double start of an active request accepted")
	}
	// Complete it so Close drains.
	if err := w.Proc(1).World().Send(0, 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := req.Wait(); err != nil {
		t.Fatal(err)
	}
	// A completed instance may be started again.
	if _, err := pr.Start(); err != nil {
		t.Fatalf("restart after completion: %v", err)
	}
	if err := w.Proc(1).World().Send(0, 1, []byte("y")); err != nil {
		t.Fatal(err)
	}
}

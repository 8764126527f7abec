package mpi

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
)

// engines under test: every behavioural test runs against both matching
// engines (raw is exercised separately since it ignores matching).
func matchingEngines() []EngineKind { return []EngineKind{EngineHost, EngineOffload} }

func newTestWorld(t *testing.T, n int, kind EngineKind) *World {
	t.Helper()
	w, err := NewWorld(n, Options{
		Engine: kind,
		Matcher: core.Config{
			Bins: 128, MaxReceives: 1024, BlockSize: 8,
			EarlyBookingCheck: true,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w
}

func TestEagerSendRecv(t *testing.T) {
	for _, kind := range matchingEngines() {
		t.Run(kind.String(), func(t *testing.T) {
			w := newTestWorld(t, 2, kind)
			msg := []byte("hello, tag matching")
			done := make(chan error, 1)
			go func() {
				done <- w.Proc(0).World().Send(1, 7, msg)
			}()
			buf := make([]byte, 64)
			st, err := w.Proc(1).World().Recv(0, 7, buf)
			if err != nil {
				t.Fatal(err)
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if st.Source != 0 || st.Tag != 7 || st.Count != len(msg) {
				t.Fatalf("status = %+v", st)
			}
			if !bytes.Equal(buf[:st.Count], msg) {
				t.Fatalf("payload = %q", buf[:st.Count])
			}
		})
	}
}

func TestPreposted(t *testing.T) {
	for _, kind := range matchingEngines() {
		t.Run(kind.String(), func(t *testing.T) {
			w := newTestWorld(t, 2, kind)
			buf := make([]byte, 16)
			req, err := w.Proc(1).World().Irecv(0, 3, buf)
			if err != nil {
				t.Fatal(err)
			}
			if _, done, _ := req.Test(); done {
				t.Fatal("receive completed before any send")
			}
			if err := w.Proc(0).World().Send(1, 3, []byte("pre")); err != nil {
				t.Fatal(err)
			}
			st, err := req.Wait()
			if err != nil || st.Count != 3 {
				t.Fatalf("st=%+v err=%v", st, err)
			}
		})
	}
}

func TestUnexpectedThenPost(t *testing.T) {
	for _, kind := range matchingEngines() {
		t.Run(kind.String(), func(t *testing.T) {
			w := newTestWorld(t, 2, kind)
			// Send first: the message must wait in the unexpected store.
			if err := w.Proc(0).World().Send(1, 9, []byte("early")); err != nil {
				t.Fatal(err)
			}
			// Give the arrival time to land in the unexpected store, then post.
			buf := make([]byte, 16)
			st, err := w.Proc(1).World().Recv(0, 9, buf)
			if err != nil {
				t.Fatal(err)
			}
			if string(buf[:st.Count]) != "early" {
				t.Fatalf("payload = %q", buf[:st.Count])
			}
		})
	}
}

func TestWildcards(t *testing.T) {
	for _, kind := range matchingEngines() {
		t.Run(kind.String(), func(t *testing.T) {
			w := newTestWorld(t, 3, kind)
			if err := w.Proc(2).World().Send(0, 42, []byte("any")); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 8)
			st, err := w.Proc(0).World().Recv(AnySource, AnyTag, buf)
			if err != nil {
				t.Fatal(err)
			}
			if st.Source != 2 || st.Tag != 42 {
				t.Fatalf("status = %+v", st)
			}
		})
	}
}

func TestNonOvertakingSameSender(t *testing.T) {
	for _, kind := range matchingEngines() {
		t.Run(kind.String(), func(t *testing.T) {
			w := newTestWorld(t, 2, kind)
			const n = 50
			go func() {
				for i := 0; i < n; i++ {
					w.Proc(0).World().Send(1, 5, []byte{byte(i)})
				}
			}()
			buf := make([]byte, 1)
			for i := 0; i < n; i++ {
				if _, err := w.Proc(1).World().Recv(0, 5, buf); err != nil {
					t.Fatal(err)
				}
				if buf[0] != byte(i) {
					t.Fatalf("message %d overtaken by %d", i, buf[0])
				}
			}
		})
	}
}

func TestRendezvousLargeMessage(t *testing.T) {
	for _, kind := range matchingEngines() {
		t.Run(kind.String(), func(t *testing.T) {
			w := newTestWorld(t, 2, kind)
			big := make([]byte, 64*1024) // well above the 1 KiB eager limit
			for i := range big {
				big[i] = byte(i * 7)
			}
			var sendErr error
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				sendErr = w.Proc(0).World().Send(1, 11, big)
			}()
			buf := make([]byte, len(big))
			st, err := w.Proc(1).World().Recv(0, 11, buf)
			wg.Wait()
			if err != nil || sendErr != nil {
				t.Fatalf("recv err=%v send err=%v", err, sendErr)
			}
			if st.Count != len(big) || !bytes.Equal(buf, big) {
				t.Fatalf("rendezvous payload corrupted (count=%d)", st.Count)
			}
		})
	}
}

func TestRendezvousUnexpected(t *testing.T) {
	for _, kind := range matchingEngines() {
		t.Run(kind.String(), func(t *testing.T) {
			w := newTestWorld(t, 2, kind)
			big := bytes.Repeat([]byte("xyz"), 10000)
			var wg sync.WaitGroup
			wg.Add(1)
			var sendErr error
			go func() {
				defer wg.Done()
				sendErr = w.Proc(0).World().Send(1, 1, big)
			}()
			// The RTS arrives before the receive is posted; the receive must
			// find it in the unexpected store and pull the data.
			buf := make([]byte, len(big))
			st, err := w.Proc(1).World().Recv(0, 1, buf)
			wg.Wait()
			if err != nil || sendErr != nil {
				t.Fatalf("recv err=%v send err=%v", err, sendErr)
			}
			if !bytes.Equal(buf[:st.Count], big) {
				t.Fatal("unexpected rendezvous payload corrupted")
			}
		})
	}
}

func TestManyToOneGatherPattern(t *testing.T) {
	// The matching-misery motivator: every rank sends to rank 0.
	for _, kind := range matchingEngines() {
		t.Run(kind.String(), func(t *testing.T) {
			const n = 8
			w := newTestWorld(t, n, kind)
			var wg sync.WaitGroup
			for r := 1; r < n; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					w.Proc(r).World().Send(0, r, []byte(fmt.Sprintf("from-%d", r)))
				}(r)
			}
			got := map[int]string{}
			buf := make([]byte, 32)
			for i := 1; i < n; i++ {
				st, err := w.Proc(0).World().Recv(AnySource, AnyTag, buf)
				if err != nil {
					t.Fatal(err)
				}
				got[st.Source] = string(buf[:st.Count])
			}
			wg.Wait()
			for r := 1; r < n; r++ {
				if got[r] != fmt.Sprintf("from-%d", r) {
					t.Fatalf("rank %d: got %q", r, got[r])
				}
			}
		})
	}
}

func TestCommunicatorIsolation(t *testing.T) {
	for _, kind := range matchingEngines() {
		t.Run(kind.String(), func(t *testing.T) {
			w := newTestWorld(t, 2, kind)
			// Same source and tag on two communicators must not cross.
			if err := w.Proc(0).Comm(1).Send(1, 5, []byte("one")); err != nil {
				t.Fatal(err)
			}
			if err := w.Proc(0).Comm(2).Send(1, 5, []byte("two")); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 8)
			st, err := w.Proc(1).Comm(2).Recv(0, 5, buf)
			if err != nil || string(buf[:st.Count]) != "two" {
				t.Fatalf("comm 2 got %q err=%v", buf[:st.Count], err)
			}
			st, err = w.Proc(1).Comm(1).Recv(0, 5, buf)
			if err != nil || string(buf[:st.Count]) != "one" {
				t.Fatalf("comm 1 got %q err=%v", buf[:st.Count], err)
			}
		})
	}
}

func TestSelfSend(t *testing.T) {
	for _, kind := range matchingEngines() {
		t.Run(kind.String(), func(t *testing.T) {
			w := newTestWorld(t, 1, kind)
			req, err := w.Proc(0).World().Isend(0, 1, []byte("self"))
			if err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 8)
			st, err := w.Proc(0).World().Recv(0, 1, buf)
			if err != nil || string(buf[:st.Count]) != "self" {
				t.Fatalf("self-send got %q err=%v", buf[:st.Count], err)
			}
			if _, err := req.Wait(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestBarrier(t *testing.T) {
	for _, kind := range matchingEngines() {
		t.Run(kind.String(), func(t *testing.T) {
			const n = 4
			w := newTestWorld(t, n, kind)
			var counter int32
			var mu sync.Mutex
			var wg sync.WaitGroup
			for r := 0; r < n; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					for round := 0; round < 3; round++ {
						mu.Lock()
						counter++
						mu.Unlock()
						if err := w.Proc(r).World().Barrier(); err != nil {
							t.Errorf("rank %d barrier: %v", r, err)
							return
						}
						mu.Lock()
						c := counter
						mu.Unlock()
						if c < int32((round+1)*n) {
							t.Errorf("rank %d passed barrier %d with counter %d", r, round, c)
							return
						}
					}
				}(r)
			}
			wg.Wait()
		})
	}
}

func TestTruncation(t *testing.T) {
	for _, kind := range matchingEngines() {
		t.Run(kind.String(), func(t *testing.T) {
			w := newTestWorld(t, 2, kind)
			if err := w.Proc(0).World().Send(1, 2, []byte("longer than buf")); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 4)
			_, err := w.Proc(1).World().Recv(0, 2, buf)
			if err != ErrTruncated {
				t.Fatalf("err = %v, want ErrTruncated", err)
			}
			if string(buf) != "long" {
				t.Fatalf("partial payload = %q", buf)
			}
		})
	}
}

func TestRawEngineFIFO(t *testing.T) {
	w := newTestWorld(t, 2, EngineRaw)
	const n = 20
	go func() {
		for i := 0; i < n; i++ {
			w.Proc(0).World().Send(1, i, []byte{byte(i)})
		}
	}()
	buf := make([]byte, 1)
	for i := 0; i < n; i++ {
		// Raw mode ignores source and tag: any receive takes the next message.
		st, err := w.Proc(1).World().Recv(0, 999, buf)
		if err != nil {
			t.Fatal(err)
		}
		if buf[0] != byte(i) || st.Tag != i {
			t.Fatalf("raw FIFO broken at %d: got %d (tag %d)", i, buf[0], st.Tag)
		}
	}
}

func TestArgumentValidation(t *testing.T) {
	w := newTestWorld(t, 2, EngineHost)
	c := w.Proc(0).World()
	if _, err := c.Isend(5, 0, nil); err == nil {
		t.Error("out-of-range destination accepted")
	}
	if _, err := c.Isend(1, -3, nil); err == nil {
		t.Error("negative tag accepted")
	}
	if _, err := c.Irecv(9, 0, nil); err == nil {
		t.Error("out-of-range source accepted")
	}
	if _, err := c.Irecv(0, -7, nil); err == nil {
		t.Error("negative non-wildcard tag accepted")
	}
	if _, err := NewWorld(0, Options{}); err == nil {
		t.Error("empty world accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("reserved communicator id accepted")
		}
	}()
	w.Proc(0).Comm(-1)
}

func TestOffloadStatsVisible(t *testing.T) {
	w := newTestWorld(t, 2, EngineOffload)
	if w.Proc(1).Matcher() == nil {
		t.Fatal("offload engine must expose its matcher")
	}
	if w.Proc(1).Matcher().Stats().Messages != 0 {
		t.Fatal("fresh matcher has traffic")
	}
	if err := w.Proc(0).World().Send(1, 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := w.Proc(1).World().Recv(0, 1, buf); err != nil {
		t.Fatal(err)
	}
	if w.Proc(1).Matcher().Stats().Messages == 0 {
		t.Fatal("matcher saw no messages")
	}
	// Host stats only meaningful on the host engine.
	if w.Proc(1).HostStats().Matched != 0 {
		t.Fatal("host stats nonzero on offload engine")
	}
	if w.Proc(0).Matcher() == nil {
		t.Fatal("sender matcher missing")
	}
}

func TestHostStatsVisible(t *testing.T) {
	w := newTestWorld(t, 2, EngineHost)
	if err := w.Proc(0).World().Send(1, 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := w.Proc(1).World().Recv(0, 1, buf); err != nil {
		t.Fatal(err)
	}
	if w.Proc(1).HostStats().Matched == 0 {
		t.Fatal("host engine recorded no matches")
	}
	if w.Proc(1).Matcher() != nil {
		t.Fatal("host engine must not expose an optimistic matcher")
	}
}

func TestEngineKindString(t *testing.T) {
	names := map[EngineKind]string{
		EngineHost:     "host-list",
		EngineOffload:  "offload-optimistic",
		EngineRaw:      "raw-rdma",
		EngineKind(42): "EngineKind(42)",
	}
	for k, want := range names {
		if got := k.String(); got != want {
			t.Errorf("%d = %q, want %q", k, got, want)
		}
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	h := header{kind: kindRTS, src: 3, tag: 99, comm: 2, size: 4096, rkey: 0xdeadbeef}
	h.hashes.SrcTag, h.hashes.Tag, h.hashes.Src = 1, 2, 3
	var buf [headerSize]byte
	h.encode(buf[:])
	got, err := decodeHeader(buf[:])
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("round trip: got %+v, want %+v", got, h)
	}
	if _, err := decodeHeader(buf[:10]); err == nil {
		t.Fatal("short header accepted")
	}
	buf[0] = 99
	if _, err := decodeHeader(buf[:]); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestWaitallAndTest(t *testing.T) {
	w := newTestWorld(t, 2, EngineHost)
	var reqs []*Request
	for i := 0; i < 5; i++ {
		req, err := w.Proc(0).World().Isend(1, i, []byte("m"))
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, req)
	}
	reqs = append(reqs, nil) // tolerated
	if err := Waitall(reqs...); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2)
	for i := 0; i < 5; i++ {
		if _, err := w.Proc(1).World().Recv(0, i, buf); err != nil {
			t.Fatal(err)
		}
	}
}

func TestManyCommunicatorsStress(t *testing.T) {
	for _, kind := range matchingEngines() {
		t.Run(kind.String(), func(t *testing.T) {
			w := newTestWorld(t, 2, kind)
			const comms, msgs = 4, 16
			var wg sync.WaitGroup
			for cid := int32(0); cid < comms; cid++ {
				wg.Add(1)
				go func(cid int32) {
					defer wg.Done()
					for i := 0; i < msgs; i++ {
						if err := w.Proc(0).Comm(cid).Send(1, i, []byte{byte(cid), byte(i)}); err != nil {
							t.Errorf("send comm %d: %v", cid, err)
							return
						}
					}
				}(cid)
			}
			for cid := int32(0); cid < comms; cid++ {
				wg.Add(1)
				go func(cid int32) {
					defer wg.Done()
					buf := make([]byte, 2)
					for i := 0; i < msgs; i++ {
						st, err := w.Proc(1).Comm(cid).Recv(0, i, buf)
						if err != nil {
							t.Errorf("recv comm %d: %v", cid, err)
							return
						}
						if buf[0] != byte(cid) || buf[1] != byte(i) || st.Tag != i {
							t.Errorf("comm %d msg %d: got (%d,%d)", cid, i, buf[0], buf[1])
							return
						}
					}
				}(cid)
			}
			wg.Wait()
		})
	}
}

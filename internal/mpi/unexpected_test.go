package mpi

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
)

// storedDepth is the number of messages in rank p's unexpected store.
func storedDepth(p *Proc) int {
	switch e := p.engine.(type) {
	case *hostEngine:
		e.list.mu.Lock()
		defer e.list.mu.Unlock()
		return e.list.lm.UnexpectedDepth()
	case *offloadEngine:
		return e.matcher.UnexpectedDepth()
	}
	return 0
}

// TestUnexpectedPathAllocs is the allocation guard of store-then-post over
// the whole stack: an eager message that waits in the unexpected store costs
// the two 64-byte Requests its Isend and Irecv return and nothing else (no store
// entry, no list node, no payload buffer), and the payload it waits in is
// the envelope's own: every bounce buffer is overwritten while the messages
// are stored, and they still deliver what was sent.
func TestUnexpectedPathAllocs(t *testing.T) {
	const k, depth = 8, 16
	for _, kind := range matchingEngines() {
		for _, size := range []int{8, 1024} {
			t.Run(fmt.Sprintf("%v/%dB", kind, size), func(t *testing.T) {
				w, err := NewWorld(2, Options{Engine: kind, RecvDepth: depth,
					Matcher: core.Config{Bins: 128, MaxReceives: 1024, BlockSize: 8, EarlyBookingCheck: true}})
				if err != nil {
					t.Fatal(err)
				}
				defer w.Close()
				snd, rcv := w.Proc(0).World(), w.Proc(1).World()

				var payload, got [k][]byte
				for i := range payload {
					payload[i] = bytes.Repeat([]byte{byte(i + 1)}, size)
					got[i] = make([]byte, size)
				}
				junk, sink := bytes.Repeat([]byte{0xff}, size), make([]byte, size)
				reqs := make([]*Request, 0, 2*k)
				cycle := func(overwrite bool) {
					reqs = reqs[:0]
					for i := range payload {
						req, err := snd.Isend(1, i, payload[i])
						if err != nil {
							t.Fatal(err)
						}
						reqs = append(reqs, req)
					}
					for storedDepth(w.Proc(1)) < k {
						runtime.Gosched()
					}
					// The receive queue is first in, first out: depth more
					// messages land once in every bounce buffer.
					for i := 0; overwrite && i < depth; i++ {
						if err := snd.Send(1, k, junk); err != nil {
							t.Fatal(err)
						}
						if _, err := rcv.Recv(0, k, sink); err != nil {
							t.Fatal(err)
						}
					}
					// By exact key, by tag, by source and by arrival order.
					for i := range got {
						src, tag := 0, i
						if i%4 == 1 || i == k-1 {
							src = AnySource
						}
						if i%4 == 2 || i == k-1 {
							tag = AnyTag
						}
						req, err := rcv.Irecv(src, tag, got[i])
						if err != nil {
							t.Fatal(err)
						}
						reqs = append(reqs, req)
					}
					if err := Waitall(reqs...); err != nil {
						t.Fatal(err)
					}
				}

				cycle(true)
				for i := range got {
					// Receive 2 names any tag and takes the oldest stored
					// message, 0 and 1 are gone by then: it gets 2 itself.
					if !bytes.Equal(got[i], payload[i]) {
						t.Fatalf("receive %d delivered %x..., sent %x...", i, got[i][:4], payload[i][:4])
					}
				}
				if raceEnabled {
					t.Skip("sync.Pool drops under the race detector: no exact count")
				}
				cycle(false)
				if allocs := testing.AllocsPerRun(20, func() { cycle(false) }); allocs != 2*k {
					t.Fatalf("%d stored-then-posted messages allocate %.0f times, want the %d requests", k, allocs, 2*k)
				}
			})
		}
	}
}

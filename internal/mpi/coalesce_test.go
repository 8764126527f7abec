package mpi

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/match"
	"repro/internal/obs"
	"repro/internal/rdma"
)

// newCoalesceWorld builds a world with eager coalescing armed: frames close
// at 1 KiB of body.
func newCoalesceWorld(t *testing.T, n int, kind EngineKind, plan rdma.FaultPlan) *World {
	t.Helper()
	w, err := NewWorld(n, Options{
		Engine:     kind,
		EagerLimit: 64,
		Matcher: core.Config{
			Bins: 128, MaxReceives: 1024, BlockSize: 8,
			EarlyBookingCheck: true,
		},
		Faults:        plan,
		CoalesceBytes: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w
}

// coalesceFlushes sums the four flush-reason counters across all ranks and
// returns them alongside the merged width histogram.
func coalesceFlushes(w *World) (flushes uint64, frames, msgs uint64) {
	for r := 0; r < w.Size(); r++ {
		s := w.Proc(r).Obs()
		for _, c := range []obs.Counter{
			obs.CtrCoalesceFlushSize, obs.CtrCoalesceFlushCount,
			obs.CtrCoalesceFlushSync, obs.CtrCoalesceFlushTimeout,
		} {
			flushes += s.Counters.Load(c)
		}
		h := s.Hist(obs.HistCoalesceWidth)
		frames += h.Count
		msgs += h.Sum
	}
	return flushes, frames, msgs
}

// TestCoalesceGoldenEquivalence is the tentpole acceptance check: with
// coalescing armed, the matcher-visible outcome of the pair workload is
// identical to the coalescing-off run, on both matching engines — and
// frames demonstrably carried more than one message each.
func TestCoalesceGoldenEquivalence(t *testing.T) {
	const k = 30
	for _, kind := range matchingEngines() {
		t.Run(kind.String(), func(t *testing.T) {
			golden := runPairWorkload(t, newFaultWorld(t, 4, kind, rdma.FaultPlan{}), k)
			verifyWorkload(t, golden, k)

			w := newCoalesceWorld(t, 4, kind, rdma.FaultPlan{})
			got := runPairWorkload(t, w, k)
			if !reflect.DeepEqual(golden, got) {
				t.Fatal("matching outcomes differ between coalescing off and on")
			}
			flushes, frames, msgs := coalesceFlushes(w)
			if flushes == 0 || frames == 0 {
				t.Fatalf("coalescer never flushed: flushes=%d frames=%d", flushes, frames)
			}
			if flushes != frames {
				t.Fatalf("flush counters (%d) disagree with width histogram (%d frames)", flushes, frames)
			}
			if msgs <= frames {
				t.Fatalf("no frame carried more than one message: %d msgs in %d frames", msgs, frames)
			}
		})
	}
}

// TestCoalesceGoldenEquivalenceUnderFaults layers the fixed-seed 5%-drop
// plan on top of coalescing: whole frames are dropped, retransmitted, and
// deduplicated as single reliability units, and the outcome still matches
// the fault-free, coalescing-off golden run.
func TestCoalesceGoldenEquivalenceUnderFaults(t *testing.T) {
	const k = 30
	for _, kind := range matchingEngines() {
		t.Run(kind.String(), func(t *testing.T) {
			golden := runPairWorkload(t, newFaultWorld(t, 4, kind, rdma.FaultPlan{}), k)
			verifyWorkload(t, golden, k)

			w := newCoalesceWorld(t, 4, kind, testFaultPlan())
			got := runPairWorkload(t, w, k)
			if !reflect.DeepEqual(golden, got) {
				t.Fatal("coalesced outcomes differ from golden under faults")
			}
			if flushes, _, _ := coalesceFlushes(w); flushes == 0 {
				t.Fatal("coalescer never flushed")
			}
			fs := w.FaultStats()
			if fs.Dropped == 0 {
				t.Fatalf("fault plan injected nothing: %v", fs)
			}
			rs := w.ReliabilityStats()
			if rs.Retransmits == 0 {
				t.Fatalf("dropped frames were never repaired: %+v", rs)
			}
		})
	}
}

// TestCoalesceDisabledIsIdentity checks the off switch: without coalesce
// options no coalescer exists, no batch frame is ever formed, and none of
// the coalescing counters move.
func TestCoalesceDisabledIsIdentity(t *testing.T) {
	const k = 12
	for _, kind := range matchingEngines() {
		t.Run(kind.String(), func(t *testing.T) {
			w := newFaultWorld(t, 3, kind, rdma.FaultPlan{})
			for r := 0; r < w.Size(); r++ {
				if w.Proc(r).coal != nil {
					t.Fatalf("rank %d has a coalescer with coalescing off", r)
				}
			}
			out := runPairWorkload(t, w, k)
			verifyWorkload(t, out, k)
			if flushes, frames, _ := coalesceFlushes(w); flushes != 0 || frames != 0 {
				t.Fatalf("coalesce activity with coalescing off: flushes=%d frames=%d", flushes, frames)
			}
		})
	}
}

// TestCoalesceAcrossDepths runs the coalesced workload at in-flight block
// depths 1, 4, and 8 and demands identical application-visible outcomes:
// unbatched bursts must respect block formation and the retire frontier at
// every pipeline depth.
func TestCoalesceAcrossDepths(t *testing.T) {
	const k = 24
	var golden [][][]recvRecord
	for _, depth := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("depth=%d", depth), func(t *testing.T) {
			w, err := NewWorld(3, Options{
				Engine:     EngineOffload,
				EagerLimit: 64,
				Matcher: core.Config{
					Bins: 128, MaxReceives: 1024, BlockSize: 8,
					InFlightBlocks:    depth,
					EarlyBookingCheck: true,
				},
				CoalesceBytes: 1024,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { w.Close() })
			out := runPairWorkload(t, w, k)
			verifyWorkload(t, out, k)
			if golden == nil {
				golden = out
			} else if !reflect.DeepEqual(golden, out) {
				t.Fatalf("depth %d outcome differs from depth 1", depth)
			}
		})
	}
}

// TestCoalesceTimeoutFlush covers the staleness trigger: a lone buffered
// message with no later synchronization point on the sender still reaches a
// blocked receiver, via the timer.
func TestCoalesceTimeoutFlush(t *testing.T) {
	w := newCoalesceWorld(t, 2, EngineHost, rdma.FaultPlan{})
	payload := []byte("stale-but-not-stranded")
	// The Isend completes immediately (buffered-send semantics) and rank 0
	// never waits on anything, so only the staleness timer can flush.
	if _, err := w.Proc(0).World().Isend(1, 7, payload); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	st, err := w.Proc(1).World().Recv(0, 7, buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[:st.Count], payload) {
		t.Fatalf("got %q, want %q", buf[:st.Count], payload)
	}
	s := w.Proc(0).Obs()
	if s.Counters.Load(obs.CtrCoalesceFlushTimeout) == 0 {
		t.Fatal("staleness timer never fired")
	}
}

// TestCoalesceFrameCap drives one destination's coalescer past the wire's
// per-frame message cap with a byte threshold far above what the records
// fill: the count trigger alone must close every frame at maxBatchMsgs, and
// the receiver must still get every message in order. The coalescer is
// built directly and its staleness timer never started, so no timeout
// flush can close a frame first.
func TestCoalesceFrameCap(t *testing.T) {
	const n = 10000
	w, err := NewWorld(2, Options{CoalesceBytes: 256 << 10, Obs: obs.Options{}.Tracing()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	p := w.Proc(0)
	c := newCoalescer(p)
	comm := match.WorldComm
	for i := 0; i < n; i++ {
		hashes := match.InlineHashes{
			SrcTag: match.HashSrcTag(0, match.Tag(i), comm),
			Tag:    match.HashTag(match.Tag(i), comm),
			Src:    match.HashSrc(0, comm),
		}
		if err := c.add(1, int32(i), comm, hashes, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.flushAll(flushSync); err != nil {
		t.Fatal(err)
	}

	var frames, msgs uint64
	for _, ev := range p.Obs().Events() {
		if ev.Kind != obs.EvCoalesceFlush {
			continue
		}
		if ev.B > maxBatchMsgs {
			t.Fatalf("flushed frame holds %d sub-messages, cap is %d", ev.B, maxBatchMsgs)
		}
		frames++
		msgs += ev.B
	}
	if msgs != n {
		t.Fatalf("flush events carry %d messages in %d frames, want %d", msgs, frames, n)
	}
	if got := p.Obs().Counters.Load(obs.CtrCoalesceFlushCount); got == 0 {
		t.Fatal("no frame was flushed by the count trigger")
	}

	rc := w.Proc(1).World()
	buf := make([]byte, 1)
	for i := 0; i < n; i++ {
		st, err := rc.Recv(0, AnyTag, buf)
		if err != nil {
			t.Fatal(err)
		}
		if st.Tag != i || st.Count != 1 || buf[0] != byte(i) {
			t.Fatalf("receive %d: tag %d count %d byte %d, want tag %d byte %d",
				i, st.Tag, st.Count, buf[0], i, byte(i))
		}
	}
}

// TestCoalesceCollectives runs the collectives with coalescing armed; their
// internal traffic rides negative communicators and must bypass (and flush)
// the coalescer without deadlock or corruption.
func TestCoalesceCollectives(t *testing.T) {
	for _, kind := range matchingEngines() {
		t.Run(kind.String(), func(t *testing.T) {
			const n = 5
			w := newCoalesceWorld(t, n, kind, rdma.FaultPlan{})
			for root := 0; root < n; root++ {
				payload := []byte(fmt.Sprintf("bcast-from-%d", root))
				runAll(t, w, func(c Comm) error {
					buf := make([]byte, len(payload))
					if c.Rank() == root {
						copy(buf, payload)
					}
					if err := c.Bcast(root, buf); err != nil {
						return err
					}
					if !bytes.Equal(buf, payload) {
						return fmt.Errorf("rank %d got %q", c.Rank(), buf)
					}
					return nil
				})
			}
			want := float64(n*(n-1)) / 2
			runAll(t, w, func(c Comm) error {
				out := make([]byte, 8)
				if err := c.Allreduce(PackFloat64s([]float64{float64(c.Rank())}), OpSumFloat64, out); err != nil {
					return err
				}
				if got := UnpackFloat64s(out)[0]; got != want {
					return fmt.Errorf("rank %d: allreduce = %v, want %v", c.Rank(), got, want)
				}
				return nil
			})
		})
	}
}

// TestCoalesceRawEngine drives coalesced sends through the no-matching raw
// engine: frame unbatching must preserve the per-pair FIFO order raw mode
// promises.
func TestCoalesceRawEngine(t *testing.T) {
	w := newCoalesceWorld(t, 2, EngineRaw, rdma.FaultPlan{})
	const k = 20
	rawMsg := func(i int) []byte { return []byte(fmt.Sprintf("raw-msg-%02d", i)) }
	done := make(chan error, 1)
	go func() {
		c := w.Proc(1).World()
		buf := make([]byte, 64)
		for i := 0; i < k; i++ {
			st, err := c.Recv(0, 0, buf)
			if err != nil {
				done <- err
				return
			}
			if want := rawMsg(i); !bytes.Equal(buf[:st.Count], want) {
				done <- fmt.Errorf("msg %d: got %q, want %q", i, buf[:st.Count], want)
				return
			}
		}
		done <- nil
	}()
	c := w.Proc(0).World()
	var reqs []*Request
	for i := 0; i < k; i++ {
		req, err := c.Isend(1, 0, rawMsg(i))
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, req)
	}
	if err := Waitall(reqs...); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

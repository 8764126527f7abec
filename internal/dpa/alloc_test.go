package dpa

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/match"
	"repro/internal/rdma"
)

// TestArrivalHotPathAllocs is the alloc-regression guard for the arrival
// datapath (CI runs it in the ordinary test sweep): after warmup, the
// drain → classify → expand → form → match loop must stay at zero heap
// allocations per message, both for lone completions and for coalesced
// frames unbatched through the Expand hook. A width-W frame is modeled as
// one CQ completion that Expand fans out into W sub-completions, exactly
// as the MPI offload engine does for kindEagerBatch.
func TestArrivalHotPathAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc guard needs steady-state pumping")
	}
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	for _, width := range []int{1, 8} {
		t.Run(fmt.Sprintf("width=%d", width), func(t *testing.T) {
			acc := MustNew(Config{Threads: 8})
			defer acc.Close()
			matcher := newMatcher(core.Config{
				Bins: 2048, MaxReceives: 8192, BlockSize: 8,
				EarlyBookingCheck: true,
			})
			cq := rdma.NewCQ()
			p := NewPipeline(acc, matcher, cq)
			p.Decode = func(c rdma.Completion, env *match.Envelope) *match.Envelope {
				env.Source = 1
				env.Tag = 5
				return env
			}
			p.Handle = func(tid int, res core.Result, c rdma.Completion) {}
			if width > 1 {
				p.Expand = func(c rdma.Completion, out []rdma.Completion) []rdma.Completion {
					for i := 0; i < width; i++ {
						out = append(out, rdma.Completion{Op: c.Op})
					}
					return out
				}
			}
			handled := countHandled(p)
			p.Start()
			defer p.Stop()

			const window = 512
			const lag = 128
			recvs := make([]match.Recv, window)
			comp := rdma.Completion{Op: rdma.OpRecv}

			pushed := 0 // messages (sub-completions), not frames
			pump := func(frames int) {
				for i := 0; i < frames; i++ {
					for j := 0; j < width; j++ {
						r := &recvs[pushed%window]
						r.Source, r.Tag = 1, 5
						if _, _, err := matcher.PostRecv(r); err != nil {
							t.Fatal(err)
						}
						pushed++
					}
					cq.Push(comp)
					if pushed%lag == 0 {
						for handled.Load() < uint64(pushed-lag) {
							runtime.Gosched()
						}
					}
				}
				for handled.Load() < uint64(pushed) {
					runtime.Gosched()
				}
			}

			pump(2 * window / width) // warm pools, CQ backing, formed buffer
			const framesPerRun = 256
			allocs := testing.AllocsPerRun(10, func() { pump(framesPerRun) })
			perMsg := allocs / float64(framesPerRun*width)
			// The benchmark criterion is 0 allocs/op after go test's
			// per-op rounding; allow only far-below-one noise (an
			// occasional pool refill after a GC cycle).
			if perMsg >= 0.1 {
				t.Fatalf("arrival hot path allocates: %.3f allocs/msg (%.1f allocs/run)", perMsg, allocs)
			}
		})
	}
}

package dpa

import (
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/match"
	"repro/internal/obs"
	"repro/internal/rdma"
)

// BenchmarkArrivalHotPath measures the steady-state arrival datapath end to
// end — CQ batch drain, block formation, pooled envelope decode, optimistic
// match, handler dispatch — for a single-process eager ping flood where
// every message finds a pre-posted receive. With the pooling and batching
// in place the loop must run at zero heap allocations per message
// (ReportAllocs verifies; EXPERIMENTS.md records the numbers).
func BenchmarkArrivalHotPath(b *testing.B) {
	benchArrivalHotPath(b, obs.Options{})
}

// BenchmarkArrivalHotPathTraced is the same flood with event tracing on:
// the delta against BenchmarkArrivalHotPath is the observability layer's
// enabled overhead (EXPERIMENTS.md budgets it under 5%).
func BenchmarkArrivalHotPathTraced(b *testing.B) {
	benchArrivalHotPath(b, obs.Options{}.Tracing())
}

func benchArrivalHotPath(b *testing.B, opts obs.Options) {
	acc := MustNew(Config{Threads: 8})
	defer acc.Close()
	matcher := newMatcher(core.Config{
		Bins: 2048, MaxReceives: 8192, BlockSize: 8,
		EarlyBookingCheck: true,
	})
	matcher.SetObs(obs.New(opts))
	cq := rdma.NewCQ()
	p := NewPipeline(acc, matcher, cq)
	p.Decode = func(c rdma.Completion, env *match.Envelope) *match.Envelope {
		env.Source = 1
		env.Tag = 5
		return env
	}
	p.Handle = func(tid int, res core.Result, c rdma.Completion) {}
	handled := countHandled(p)
	p.Start()
	defer p.Stop()

	// A ring of reusable receives: slot i%window is guaranteed released by
	// the time it is reposted because the flood never runs more than
	// 2*lag ahead of the pipeline (see the backpressure check below).
	const window = 512
	const lag = 128
	recvs := make([]match.Recv, window)
	comp := rdma.Completion{Op: rdma.OpRecv}

	pushed := 0
	pump := func(n int) {
		for i := 0; i < n; i++ {
			r := &recvs[pushed%window]
			r.Source, r.Tag = 1, 5
			if _, _, err := matcher.PostRecv(r); err != nil {
				b.Fatal(err)
			}
			cq.Push(comp)
			pushed++
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

	pump(2 * window) // warm the pools, CQ backing array, and scheduler
	b.ReportAllocs()
	b.ResetTimer()
	pump(b.N)
	b.StopTimer()
}

// BenchmarkRunBlock measures block dispatch alone: 32 no-op activations per
// block, so ns/op is the cost of waking the pool and joining it (chain-wake:
// one ticket from RunBlock, one forwarded, the rest of the IDs stolen by the
// first worker). Must stay at 0 allocs/op.
func BenchmarkRunBlock(b *testing.B) {
	acc := MustNew(Config{Threads: DefaultThreads})
	defer acc.Close()
	fn := func(int) {}
	acc.RunBlock(DefaultThreads, fn) // warm the dispatch-record pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc.RunBlock(DefaultThreads, fn)
	}
}

// BenchmarkInFlightPipeline measures the same steady-state flood as the
// in-flight window deepens: K runner goroutines keep K matching blocks
// executing concurrently, with the matcher's retire frontier serializing
// their effects. Depth 1 is the serial launcher of the original design.
// Distinct (source,tag) keys keep the workload in the no-conflict regime
// (Figure 8 "NC"), so the depths differ only in block-level overlap.
func BenchmarkInFlightPipeline(b *testing.B) {
	const blockN = 8
	for _, depth := range []int{1, 2, 4, 8} {
		b.Run(map[int]string{1: "depth=1", 2: "depth=2", 4: "depth=4", 8: "depth=8"}[depth], func(b *testing.B) {
			acc := MustNew(Config{Threads: blockN * depth})
			defer acc.Close()
			matcher := newMatcher(core.Config{
				Bins: 2048, MaxReceives: 8192, BlockSize: blockN,
				InFlightBlocks:    depth,
				EarlyBookingCheck: true,
			})
			cq := rdma.NewCQ()
			p := NewPipeline(acc, matcher, cq)
			var key atomic.Uint64 // arrival order is CQ order; keys rotate with it
			p.Decode = func(c rdma.Completion, env *match.Envelope) *match.Envelope {
				k := key.Add(1) - 1
				env.Source = match.Rank(k % 64)
				env.Tag = match.Tag(k / 64 % 64)
				return env
			}
			p.Handle = func(tid int, res core.Result, c rdma.Completion) {}
			handled := countHandled(p)
			p.Start()
			defer p.Stop()

			const window = 4096 // 64x64 key rotation: slot i%window reposts the same key
			const lag = 512
			recvs := make([]match.Recv, window)
			comp := rdma.Completion{Op: rdma.OpRecv}

			pushed := 0
			pump := func(n int) {
				for i := 0; i < n; i++ {
					r := &recvs[pushed%window]
					r.Source = match.Rank(uint64(pushed) % 64)
					r.Tag = match.Tag(uint64(pushed) / 64 % 64)
					if _, _, err := matcher.PostRecv(r); err != nil {
						b.Fatal(err)
					}
					cq.Push(comp)
					pushed++
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

			pump(2 * window)
			b.ReportAllocs()
			b.ResetTimer()
			pump(b.N)
			b.StopTimer()
		})
	}
}

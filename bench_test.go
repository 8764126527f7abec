// Benchmarks regenerating every table and figure of the paper's evaluation,
// plus ablations over the §IV-D design choices. Run with:
//
//	go test -bench=. -benchmem
//
// Mapping (see DESIGN.md experiment index):
//
//	BenchmarkTableII*   — Table II (application trace generation)
//	BenchmarkFigure6*   — Figure 6 (MPI call distribution)
//	BenchmarkFigure7*   — Figure 7 (queue depth vs bins)
//	BenchmarkFigure8*   — Figure 8 (message rate per configuration)
//	BenchmarkMemory*    — §IV-E memory model
//	BenchmarkAblation*  — §IV-D optimizations and scaling knobs
package repro

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/analyzer"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/match"
	"repro/internal/mpi"
	"repro/internal/tracegen"
)

// benchScale keeps trace-driven benchmarks affordable; the cmd/ tools run
// the full-scale versions.
const benchScale = 10

// BenchmarkTableIITraceGen regenerates the Table II application traces.
func BenchmarkTableIITraceGen(b *testing.B) {
	for _, app := range tracegen.Apps() {
		b.Run(app.Name, func(b *testing.B) {
			var events int
			for i := 0; i < b.N; i++ {
				tr := app.Generate(tracegen.Config{Scale: benchScale})
				events = tr.NumEvents()
			}
			b.ReportMetric(float64(events), "events")
		})
	}
}

// BenchmarkFigure6CallMix regenerates the call-distribution analysis.
func BenchmarkFigure6CallMix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reps, err := bench.RunFigure6(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if len(reps) != 16 {
			b.Fatalf("reports = %d", len(reps))
		}
	}
}

// BenchmarkFigure7QueueDepth regenerates the queue-depth sweep at the
// paper's headline bin counts and reports the cross-app averages.
func BenchmarkFigure7QueueDepth(b *testing.B) {
	var red bench.Figure7Reduction
	for i := 0; i < b.N; i++ {
		byApp, err := bench.RunFigure7(benchScale, bench.Figure7Bins)
		if err != nil {
			b.Fatal(err)
		}
		red = bench.Reduce(byApp, bench.Figure7Bins)
	}
	b.ReportMetric(red.AvgDepth[0], "depth@1bin")
	b.ReportMetric(red.AvgDepth[1], "depth@32bins")
	b.ReportMetric(red.AvgDepth[2], "depth@128bins")
}

// BenchmarkFigure8MsgRate regenerates the five message-rate scenarios; the
// msg/s metric is the figure's y-axis.
func BenchmarkFigure8MsgRate(b *testing.B) {
	for _, cfg := range bench.Figure8Scenarios() {
		cfg := cfg
		b.Run(cfg.Label, func(b *testing.B) {
			cfg.K = 100
			cfg.Reps = 20
			var rate float64
			for i := 0; i < b.N; i++ {
				res, err := bench.RunMsgRate(cfg)
				if err != nil {
					b.Fatal(err)
				}
				rate = res.MsgPerSec
			}
			b.ReportMetric(rate, "msg/s")
		})
	}
}

// BenchmarkMemoryFootprint exercises descriptor-table allocation at the
// §IV-E design point (8 K receives) and reports the modeled bytes.
func BenchmarkMemoryFootprint(b *testing.B) {
	cfg := core.Config{Bins: 128, MaxReceives: 8192, BlockSize: 32}
	var total int
	for i := 0; i < b.N; i++ {
		m := core.MustNew(cfg)
		total = m.ModelFootprint().Total()
	}
	b.ReportMetric(float64(total)/1024, "KiB")
}

// matchBench drives a post+arrive cycle through the sequential engine.
func matchBench(b *testing.B, cfg core.Config, keys int) {
	m := core.MustNew(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % keys
		r := &match.Recv{Source: match.Rank(k % 16), Tag: match.Tag(k)}
		if _, _, err := m.PostRecv(r); err != nil {
			b.Fatal(err)
		}
		res := m.Arrive(&match.Envelope{Source: match.Rank(k % 16), Tag: match.Tag(k)})
		if res.Unexpected {
			b.Fatal("unexpected")
		}
	}
}

// BenchmarkAblationBins sweeps the bin count (the Figure 7 knob) on a
// post+match cycle with 64 live keys.
func BenchmarkAblationBins(b *testing.B) {
	for _, bins := range []int{1, 8, 32, 128, 512} {
		b.Run(fmt.Sprintf("bins=%d", bins), func(b *testing.B) {
			cfg := core.Config{Bins: bins, MaxReceives: 4096, BlockSize: 1,
				EarlyBookingCheck: true}
			matchBench(b, cfg, 64)
		})
	}
}

// conflictBlock runs with-conflict blocks through the engine.
func conflictBlock(b *testing.B, mutate func(*core.Config)) {
	cfg := core.Config{Bins: 256, MaxReceives: 4096, BlockSize: 16,
		EarlyBookingCheck: true}
	if mutate != nil {
		mutate(&cfg)
	}
	m := core.MustNew(cfg)
	const n = 16
	envs := make([]*match.Envelope, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := 0; j < n; j++ {
			if _, _, err := m.PostRecv(&match.Recv{Source: 1, Tag: 7}); err != nil {
				b.Fatal(err)
			}
			envs[j] = &match.Envelope{Source: 1, Tag: 7}
		}
		b.StartTimer()
		m.ArriveBlock(envs)
	}
}

// BenchmarkAblationConflictPaths compares the §III-D resolution strategies
// on a pure compatible-sequence workload.
func BenchmarkAblationConflictPaths(b *testing.B) {
	b.Run("early-booking-check", func(b *testing.B) { conflictBlock(b, nil) })
	b.Run("fast-path", func(b *testing.B) {
		conflictBlock(b, func(c *core.Config) {
			c.EarlyBookingCheck = false
			c.SimultaneousArrival = true
		})
	})
	b.Run("slow-path", func(b *testing.B) {
		conflictBlock(b, func(c *core.Config) {
			c.EarlyBookingCheck = false
			c.SimultaneousArrival = true
			c.DisableFastPath = true
		})
	})
}

// BenchmarkAblationHints measures the §VII communicator assertions: with
// no_any_source/no_any_tag asserted, arrivals skip the wildcard indexes
// entirely; with allow_overtaking, conflict machinery is bypassed.
func BenchmarkAblationHints(b *testing.B) {
	cases := []struct {
		name  string
		hints core.Hints
	}{
		{"none", core.Hints{}},
		{"no-wildcards", core.Hints{NoAnySource: true, NoAnyTag: true}},
		{"allow-overtaking", core.Hints{AllowOvertaking: true}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			cfg := core.Config{Bins: 256, MaxReceives: 4096, BlockSize: 1,
				EarlyBookingCheck: true}
			m := core.MustNew(cfg)
			m.SetCommHints(0, c.hints)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % 64
				r := &match.Recv{Source: match.Rank(k % 16), Tag: match.Tag(k)}
				if _, _, err := m.PostRecv(r); err != nil {
					b.Fatal(err)
				}
				if res := m.Arrive(&match.Envelope{Source: match.Rank(k % 16), Tag: match.Tag(k)}); res.Unexpected {
					b.Fatal("unexpected")
				}
			}
		})
	}
}

// BenchmarkCollectives measures the p2p-built collectives over both
// matching engines (the §VII full-chain-offload workload).
func BenchmarkCollectives(b *testing.B) {
	for _, kind := range []mpi.EngineKind{mpi.EngineHost, mpi.EngineOffload} {
		b.Run(kind.String(), func(b *testing.B) {
			w, err := mpi.NewWorld(8, mpi.Options{Engine: kind})
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			data := mpi.PackFloat64s([]float64{1, 2, 3, 4})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for r := 0; r < 8; r++ {
					wg.Add(1)
					go func(r int) {
						defer wg.Done()
						out := make([]byte, len(data))
						if err := w.Proc(r).World().Allreduce(data, mpi.OpSumFloat64, out); err != nil {
							b.Error(err)
						}
					}(r)
				}
				wg.Wait()
			}
		})
	}
}

// BenchmarkAblationBlockSize sweeps the parallel block width N.
func BenchmarkAblationBlockSize(b *testing.B) {
	for _, n := range []int{1, 4, 16, 32} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			cfg := core.Config{Bins: 256, MaxReceives: 4096, BlockSize: n,
				EarlyBookingCheck: true}
			m := core.MustNew(cfg)
			envs := make([]*match.Envelope, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for j := 0; j < n; j++ {
					if _, _, err := m.PostRecv(&match.Recv{Source: match.Rank(j), Tag: match.Tag(j)}); err != nil {
						b.Fatal(err)
					}
					envs[j] = &match.Envelope{Source: match.Rank(j), Tag: match.Tag(j)}
				}
				b.StartTimer()
				m.ArriveBlock(envs)
			}
		})
	}
}

// BenchmarkBaselineMatchers measures the two baselines on the same
// post+arrive cycle for context.
func BenchmarkBaselineMatchers(b *testing.B) {
	run := func(b *testing.B, m match.Matcher) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := i % 64
			m.PostRecv(&match.Recv{Source: match.Rank(k % 16), Tag: match.Tag(k)})
			if _, ok := m.Arrive(&match.Envelope{Source: match.Rank(k % 16), Tag: match.Tag(k)}); !ok {
				b.Fatal("miss")
			}
		}
	}
	b.Run("list", func(b *testing.B) { run(b, match.NewListMatcher()) })
	b.Run("bin-32", func(b *testing.B) { run(b, match.NewBinMatcher(32)) })
	b.Run("bin-128", func(b *testing.B) { run(b, match.NewBinMatcher(128)) })
}

// BenchmarkAnalyzerThroughput measures trace replay speed (events/s), the
// cost the artifact reports as its 45–60 minute full run.
func BenchmarkAnalyzerThroughput(b *testing.B) {
	app, _ := tracegen.ByName("BoxLib CNS")
	tr := app.Generate(tracegen.Config{Scale: 25})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := analyzer.Analyze(tr, analyzer.Config{Bins: 32}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tr.NumEvents()), "events")
}

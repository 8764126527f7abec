package analyzer

import (
	"testing"

	"repro/internal/trace"
	"repro/internal/tracegen"
)

// benchTrace is a 64-rank BoxLib CNS workload — the paper's headline
// Figure 7 application, large enough that sharding has real work per rank.
func benchTrace(b *testing.B) *trace.Trace {
	b.Helper()
	app, ok := tracegen.ByName("BoxLib CNS")
	if !ok {
		b.Fatal("BoxLib CNS missing")
	}
	return app.Generate(tracegen.Config{Scale: 25})
}

func BenchmarkAnalyze(b *testing.B) {
	tr := benchTrace(b)
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := AnalyzeSerial(tr, Config{Bins: 32}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Analyze(tr, Config{Bins: 32}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSweep compares the pre-PR sweep shape (a fresh schedule derived
// and sorted per bin count, replayed serially) against the shared-schedule
// fan-out over the artifact's full 1…256 sweep.
func BenchmarkSweep(b *testing.B) {
	tr := benchTrace(b)
	bins := []int{1, 2, 4, 8, 16, 32, 64, 128, 256}
	b.Run("per-bin-serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, bin := range bins {
				if _, err := AnalyzeSerial(tr, Config{Bins: bin}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("shared-schedule", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Sweep(tr, bins, Config{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkBuildSchedule(b *testing.B) {
	tr := benchTrace(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buildSchedule(tr, Config{})
	}
}

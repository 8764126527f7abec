package core_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/match"
)

// Package-level microbenchmarks for the engine's hot paths; the repository
// root's bench_test.go holds the table/figure-level harnesses.

func benchMatcher(b testing.TB, bins, blockN int) *core.OptimisticMatcher {
	b.Helper()
	return core.MustNew(core.Config{
		Bins: bins, MaxReceives: 8192, BlockSize: blockN,
		EarlyBookingCheck: true,
	})
}

// BenchmarkNew measures construction at the two shapes that matter: the
// trace analyzer's (one matcher per rank shard per bin count, so New is on
// its hot path) and the paper's prototype configuration.
func BenchmarkNew(b *testing.B) {
	for _, c := range []struct {
		name string
		cfg  core.Config
	}{
		{"analyzer", core.Config{Bins: 32, MaxReceives: 4096, BlockSize: 1}},
		{"paper", core.DefaultConfig()},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.New(c.cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPostRecv measures the host→engine posting path (§IV-E compares
// it to hardware tag matching command cost).
func BenchmarkPostRecv(b *testing.B) {
	m := benchMatcher(b, 2048, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := &match.Recv{Source: match.Rank(i % 64), Tag: match.Tag(i % 1024)}
		if _, _, err := m.PostRecv(r); err != nil {
			b.Fatal(err)
		}
		// Keep the table bounded: consume the receive again.
		b.StopTimer()
		m.Arrive(&match.Envelope{Source: r.Source, Tag: r.Tag})
		b.StartTimer()
	}
}

// BenchmarkArriveExpected measures the single-message matching cycle on a
// warm table.
func BenchmarkArriveExpected(b *testing.B) {
	m := benchMatcher(b, 2048, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r := &match.Recv{Source: 3, Tag: match.Tag(i % 512)}
		if _, _, err := m.PostRecv(r); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if res := m.Arrive(&match.Envelope{Source: 3, Tag: match.Tag(i % 512)}); res.Unexpected {
			b.Fatal("unexpected")
		}
	}
}

// postRound posts len(recvs) distinct-tag receives and arriveRound delivers
// the matching messages one Arrive at a time: the analyzer's replay shape.
func postRound(tb testing.TB, m *core.OptimisticMatcher, recvs []match.Recv) {
	for i := range recvs {
		recvs[i] = match.Recv{Source: 3, Tag: match.Tag(i)}
		if _, _, err := m.PostRecv(&recvs[i]); err != nil {
			tb.Fatal(err)
		}
	}
}

func arriveRound(tb testing.TB, m *core.OptimisticMatcher, envs []match.Envelope) {
	for i := range envs {
		envs[i] = match.Envelope{Source: 3, Tag: match.Tag(i)}
		if res := m.Arrive(&envs[i]); res.Unexpected {
			tb.Fatal("unexpected")
		}
	}
}

// TestArriveOneAllocs is the allocation guard of the one-message arrival:
// posting a receive and matching it with Arrive allocates nothing once the
// descriptor table has grown to the working depth.
func TestArriveOneAllocs(t *testing.T) {
	m := benchMatcher(t, 32, 1)
	recvs, envs := make([]match.Recv, 64), make([]match.Envelope, 64)
	round := func() {
		postRound(t, m, recvs)
		arriveRound(t, m, envs)
	}
	round() // first chunk of descriptors, deferred-release ring
	round()
	if allocs := testing.AllocsPerRun(50, round); allocs != 0 {
		t.Fatalf("%d posts and matched one-message arrivals allocate %.1f times", len(recvs), allocs)
	}
}

// BenchmarkArriveOne measures one post and the one-message arrival that
// matches it, at the analyzer's shape (32 bins, block size 1). The post is
// inside the timer: stopping it costs more than the pair does.
func BenchmarkArriveOne(b *testing.B) {
	m := benchMatcher(b, 32, 1)
	recvs, envs := make([]match.Recv, 64), make([]match.Envelope, 64)
	b.ReportAllocs()
	for done := 0; done < b.N; done += len(envs) {
		n := min(len(envs), b.N-done)
		postRound(b, m, recvs[:n])
		arriveRound(b, m, envs[:n])
	}
}

// BenchmarkArriveUnexpected measures the quadruple-index store path.
func BenchmarkArriveUnexpected(b *testing.B) {
	m := benchMatcher(b, 2048, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Arrive(&match.Envelope{Source: match.Rank(i % 64), Tag: match.Tag(i)})
		// Drain periodically so the store doesn't grow unbounded.
		if i%256 == 255 {
			b.StopTimer()
			for j := i - 255; j <= i; j++ {
				m.PostRecv(&match.Recv{Source: match.Rank(j % 64), Tag: match.Tag(j)})
			}
			b.StartTimer()
		}
	}
}

// BenchmarkParallelBlock measures full block turnaround (barrier + conflict
// machinery included) at several widths.
func BenchmarkParallelBlock(b *testing.B) {
	for _, n := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			m := benchMatcher(b, 2048, n)
			envs := make([]*match.Envelope, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for j := 0; j < n; j++ {
					m.PostRecv(&match.Recv{Source: match.Rank(j), Tag: match.Tag(j)})
					envs[j] = &match.Envelope{Source: match.Rank(j), Tag: match.Tag(j)}
				}
				b.StartTimer()
				m.ArriveBlock(envs)
			}
			b.ReportMetric(float64(n), "msgs/block")
		})
	}
}

package analyzer

import (
	"cmp"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/trace"
	"repro/internal/tracegen"
)

// TestSortRunsMatchesSortFunc: whatever the input — the concatenation of
// ascending runs buildSchedule produces, a descending stream, noise, ties
// in time that only seq breaks — sortRuns leaves exactly what a general
// sort by (time, seq) leaves.
func TestSortRunsMatchesSortFunc(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var seq int32
	next := func(tm float64) step { // seq is unique, as buildSchedule's is
		seq++
		return step{time: tm, seq: seq, tag: int32(rng.Intn(100))}
	}
	ascending := func(n int, coarse bool) []step {
		out := make([]step, 0, n)
		tm := rng.Float64()
		for i := 0; i < n; i++ {
			if coarse {
				tm += float64(rng.Intn(2)) // many equal times
			} else {
				tm += rng.Float64()
			}
			out = append(out, next(tm))
		}
		return out
	}

	var inputs [][]step
	for n := 0; n <= 2; n++ { // lengths 0, 1, 2 in both orders
		inputs = append(inputs, ascending(n, false))
	}
	inputs = append(inputs, []step{{time: 2, seq: 1}, {time: 1, seq: 2}}, []step{{time: 1, seq: 2}, {time: 1, seq: 1}})
	for trial := 0; trial < 200; trial++ {
		var s []step
		for runs := 1 + rng.Intn(9); runs > 0; runs-- {
			s = append(s, ascending(rng.Intn(40), trial%2 == 0)...)
		}
		inputs = append(inputs, s)
	}
	desc := ascending(257, false)
	slices.Reverse(desc)
	noise := make([]step, 1000)
	for i := range noise {
		noise[i] = next(float64(rng.Intn(50)))
	}
	rng.Shuffle(len(noise), func(i, j int) { noise[i], noise[j] = noise[j], noise[i] })
	inputs = append(inputs, desc, noise)

	var scratch runScratch // shared: a worker reuses one across shards
	for i, in := range inputs {
		want := slices.Clone(in)
		slices.SortFunc(want, func(a, b step) int {
			return cmp.Or(cmp.Compare(a.time, b.time), cmp.Compare(a.seq, b.seq))
		})
		got := slices.Clone(in)
		sortRuns(got, &scratch)
		if !slices.Equal(got, want) {
			t.Fatalf("input %d (%d steps): sortRuns differs from slices.SortFunc", i, len(in))
		}
	}
}

// TestStepSeqBound: a step numbers the trace's events in an int32, so a
// trace of 2³¹ events or more is refused rather than numbered with a wrap.
func TestStepSeqBound(t *testing.T) {
	if err := checkEvents(math.MaxInt32); err != nil {
		t.Fatalf("2³¹−1 events refused: %v", err)
	}
	if err := checkEvents(math.MaxInt32 + 1); err == nil {
		t.Fatal("2³¹ events accepted")
	}
}

// pairedShard is a shard of n receives each matched by the arrival that
// follows it, with a progress sample every 16 pairs: its posted depth never
// exceeds one, so a replay's memory does not depend on n.
func pairedShard(n int) *shard {
	sh := &shard{rank: 0}
	for i := 0; i < n; i++ {
		tm, tag := float64(i), int32(i%64)
		sh.steps = append(sh.steps,
			step{time: tm, seq: int32(3 * i), kind: trace.OpRecv, peer: 1, tag: tag},
			step{time: tm + 0.5, seq: int32(3*i + 1), kind: trace.OpSend, peer: 1, tag: tag})
		sh.recvs++
		sh.sends++
		if i%16 == 15 {
			sh.steps = append(sh.steps, step{time: tm + 0.75, seq: int32(3*i + 2), kind: trace.OpProgress})
			sh.progress++
		}
	}
	return sh
}

// TestRunShardAllocs is the allocation guard of the replay loop: a worker
// whose slab has grown to the shard, writing its samples into a buffer that
// has room for them, replays it with a fixed number of allocations however
// many steps the shard has. The matcher is the one the previous replay
// released, through sync.Pool: the test holds one P and collects nothing
// while it measures, and under the race detector, where a pool drops puts
// at random, only the limit holds, not the exact count.
func TestRunShardAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cfg := Config{Bins: 32}
	cfg.fill()
	small, large := pairedShard(64), pairedShard(4096)
	var slab replaySlab
	samples := make([]progressSample, 0, large.progress)
	replay := func(sh *shard) float64 {
		return testing.AllocsPerRun(5, func() {
			if res := runShard(sh, cfg, &slab, samples); res.err != nil || res.depth.Matched != uint64(sh.recvs) {
				t.Fatalf("replay: %+v", res)
			}
		})
	}
	replay(large) // warm the slab
	a, b := replay(small), replay(large)
	if a != b && !raceEnabled {
		t.Errorf("allocations grow with the shard: %.0f for %d steps, %.0f for %d", a, len(small.steps), b, len(large.steps))
	}
	const limit = 32
	if b > limit {
		t.Errorf("a warmed replay allocates %.0f times, limit %d", b, limit)
	}
}

// TestSweepAllocs is the allocation guard of a whole sweep: once a sweep of
// the larger trace has grown the pooled schedule and the released matchers,
// sweeping either trace allocates the same fixed number of objects — the
// reports and what holds them — however many events it has. The schedule
// and the matchers come back through sync.Pool, so the test holds one P
// and collects nothing while it measures. Under the race detector a pool
// drops puts at random, every drop rebuilds a matcher, and neither the count
// nor a limit holds.
func TestSweepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	app, _ := tracegen.ByName("BoxLib CNS")
	small, large := app.Generate(tracegen.Config{Scale: 5}), app.Generate(tracegen.Config{Scale: 100})
	if small.NumRanks() != large.NumRanks() || 10*small.NumEvents() > large.NumEvents() {
		t.Fatalf("traces of %d and %d events on %d and %d ranks", small.NumEvents(), large.NumEvents(), small.NumRanks(), large.NumRanks())
	}
	bins := []int{1, 32, 128}
	sweep := func(tr *trace.Trace) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := Sweep(tr, bins, Config{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	sweep(large) // warm the schedule and the matchers
	a, b := sweep(small), sweep(large)
	if a != b {
		t.Errorf("allocations grow with the trace: %.0f for %d events, %.0f for %d", a, small.NumEvents(), b, large.NumEvents())
	}
	const limit = 16
	if b > limit {
		t.Errorf("a warmed sweep allocates %.0f times, limit %d", b, limit)
	}
}

// BenchmarkRunShard replays one 8 k-step shard on a warmed worker.
func BenchmarkRunShard(b *testing.B) {
	cfg := Config{Bins: 32}
	cfg.fill()
	sh := pairedShard(4096)
	var slab replaySlab
	samples := make([]progressSample, 0, sh.progress)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if res := runShard(sh, cfg, &slab, samples); res.err != nil {
			b.Fatal(res.err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(sh.steps)), "ns/step")
}

package analyzer

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/trace"
	"repro/internal/tracegen"
)

// mustEqualReports fails unless the two reports are deeply (and for floats
// exactly) equal — the sharded path promises byte-identical output, not
// just statistically equivalent output.
func mustEqualReports(t *testing.T, label string, serial, parallel *Report) {
	t.Helper()
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("%s: parallel report diverges from serial\nserial:   %+v\nparallel: %+v", label, serial, parallel)
	}
}

func TestParallelEquivalenceOnGenerators(t *testing.T) {
	engines := []Engine{EngineOptimistic, EngineList, EngineBin, EngineRank, EngineAdaptive}
	for _, name := range []string{"AMG", "BoxLib CNS", "CrystalRouter", "PARTISN"} {
		app, ok := tracegen.ByName(name)
		if !ok {
			t.Fatalf("app %s missing", name)
		}
		tr := app.Generate(tracegen.Config{Scale: 10})
		for _, eng := range engines {
			cfg := Config{Engine: eng, Bins: 16}
			serial, err := AnalyzeSerial(tr, cfg)
			if err != nil {
				t.Fatalf("%s/%s serial: %v", name, eng, err)
			}
			// The schedule is built at each width too: its shard sorts run
			// on the same Workers-wide pool as the replay.
			var ref *schedule
			for _, workers := range []int{1, 3, 16} {
				c := cfg
				c.Workers = workers
				sc := buildSchedule(tr, c)
				if ref == nil {
					ref = sc
				} else if !reflect.DeepEqual(ref.shards, sc.shards) {
					t.Errorf("%s/%s workers=%d: schedule differs from the one built at width 1", name, eng, workers)
				}
				par, err := sc.sweep([]int{c.Bins}, c)
				if err != nil {
					t.Fatalf("%s/%s workers=%d: %v", name, eng, workers, err)
				}
				mustEqualReports(t, name+"/"+string(eng), serial, par[0])
			}
		}
	}
}

func TestParallelEquivalenceEdgeCases(t *testing.T) {
	// Wildcards, unexpected arrivals, sends to a rank outside the trace,
	// and same-walltime ties that only seq can break.
	tr := &trace.Trace{App: "edges", Ranks: []trace.RankTrace{
		{Rank: 0, Events: []trace.Event{
			{Kind: trace.OpSend, Name: "MPI_Isend", Peer: 1, Tag: 5, Walltime: 0.1},  // unexpected at 1
			{Kind: trace.OpSend, Name: "MPI_Isend", Peer: 99, Tag: 9, Walltime: 0.2}, // rank not traced
			{Kind: trace.OpSend, Name: "MPI_Isend", Peer: 1, Tag: 6, Walltime: 0.6},
			{Kind: trace.OpProgress, Name: "MPI_Wait", Walltime: 0.9},
		}},
		{Rank: 1, Events: []trace.Event{
			{Kind: trace.OpRecv, Name: "MPI_Irecv", Peer: 0, Tag: 5, Walltime: 0.5},
			{Kind: trace.OpRecv, Name: "MPI_Irecv", Peer: trace.AnySource, Tag: trace.AnyTag, Walltime: 0.5},
			{Kind: trace.OpProgress, Name: "MPI_Waitall", Walltime: 0.9},
		}},
	}}
	cfg := Config{Bins: 8, Workers: 4}
	serial, err := AnalyzeSerial(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Analyze(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustEqualReports(t, "edges", serial, par)
	if par.Unexpected != 1 || par.WildcardRecvs != 1 {
		t.Fatalf("edge semantics: %+v", par)
	}

	// Rank ids that are not 0..n-1 in order: unsorted, sparse and one far
	// beyond the rank count, with sends to a negative peer and to an id no
	// rank has. Their shards are found through the id map.
	const far = 1 << 30
	sparse := &trace.Trace{App: "sparse ids", Ranks: []trace.RankTrace{
		{Rank: 7, Events: []trace.Event{
			{Kind: trace.OpRecv, Name: "MPI_Irecv", Peer: 3, Tag: 1, Walltime: 0.1},
			{Kind: trace.OpSend, Name: "MPI_Isend", Peer: far, Tag: 2, Walltime: 0.2},
			{Kind: trace.OpSend, Name: "MPI_Isend", Peer: -5, Tag: 2, Walltime: 0.3},
			{Kind: trace.OpProgress, Name: "MPI_Wait", Walltime: 0.9},
		}},
		{Rank: 3, Events: []trace.Event{
			{Kind: trace.OpSend, Name: "MPI_Isend", Peer: 7, Tag: 1, Walltime: 0.2},
			{Kind: trace.OpSend, Name: "MPI_Isend", Peer: 4, Tag: 1, Walltime: 0.25}, // no rank 4
			{Kind: trace.OpRecv, Name: "MPI_Irecv", Peer: trace.AnySource, Tag: 3, Walltime: 0.1},
			{Kind: trace.OpProgress, Name: "MPI_Waitall", Walltime: 0.9},
		}},
		{Rank: far, Events: []trace.Event{
			{Kind: trace.OpRecv, Name: "MPI_Irecv", Peer: 7, Tag: 2, Walltime: 0.1},
			{Kind: trace.OpSend, Name: "MPI_Isend", Peer: 3, Tag: 3, Walltime: 0.4},
			{Kind: trace.OpProgress, Name: "MPI_Wait", Walltime: 0.9},
		}},
	}}
	for _, workers := range []int{1, 3} {
		cfg := Config{Bins: 8, Workers: workers}
		serial, err := AnalyzeSerial(sparse, cfg)
		if err != nil {
			t.Fatal(err)
		}
		par, err := Analyze(sparse, cfg)
		if err != nil {
			t.Fatal(err)
		}
		mustEqualReports(t, fmt.Sprintf("sparse ids, workers=%d", workers), serial, par)
		if par.Matched != 3 || par.Unexpected != 0 {
			t.Fatalf("sparse ids, workers=%d: %+v", workers, par)
		}
	}

	// Finding rank 1<<30's shard must not cost memory in proportion to
	// the id.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	sc := buildSchedule(sparse, Config{Workers: 1})
	runtime.ReadMemStats(&after)
	if sc.err != nil {
		t.Fatal(sc.err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
		t.Fatalf("scheduling ids up to %d allocated %d bytes", far, got)
	}
}

// TestRepeatedRankRejected: a trace that lists rank 1 twice, each stream
// posting one of the two messages rank 0 sends it, has no single set of
// matching structures for rank 1. Every analysis path refuses it and names
// the rank; none reports a result that depends on which stream it kept.
func TestRepeatedRankRejected(t *testing.T) {
	recv := func(tag int32) trace.RankTrace {
		return trace.RankTrace{Rank: 1, Events: []trace.Event{
			{Kind: trace.OpRecv, Name: "MPI_Irecv", Peer: 0, Tag: tag, Walltime: 0.1}}}
	}
	tr := &trace.Trace{App: "repeated", Ranks: []trace.RankTrace{
		{Rank: 0, Events: []trace.Event{
			{Kind: trace.OpSend, Name: "MPI_Isend", Peer: 1, Tag: 5, Walltime: 0.5},
			{Kind: trace.OpSend, Name: "MPI_Isend", Peer: 1, Tag: 6, Walltime: 0.6},
		}},
		recv(5), recv(6),
	}}
	cfg := Config{Bins: 4}
	check := func(path string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "rank 1 ") {
			t.Errorf("%s: err = %v, want an error naming rank 1", path, err)
		}
	}
	_, err := AnalyzeSerial(tr, cfg)
	check("AnalyzeSerial", err)
	_, err = Analyze(tr, cfg)
	check("Analyze", err)
	_, err = Sweep(tr, []int{1, 32}, cfg)
	check("Sweep", err)
}

func TestSweepEquivalence(t *testing.T) {
	app, _ := tracegen.ByName("BoxLib CNS")
	tr := app.Generate(tracegen.Config{Scale: 10})
	bins := []int{1, 4, 32, 128}
	cfg := Config{Workers: 8}

	reps, err := Sweep(tr, bins, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != len(bins) {
		t.Fatalf("got %d reports for %d bins", len(reps), len(bins))
	}
	for i, b := range bins {
		c := cfg
		c.Bins = b
		serial, err := AnalyzeSerial(tr, c)
		if err != nil {
			t.Fatal(err)
		}
		mustEqualReports(t, app.Name, serial, reps[i])
	}
}

// TestSweepReuseMatchesSerial runs sweeps of different traces, bin counts
// and engines on four goroutines at once, so that every schedule and
// matcher a sweep reuses was last used by another trace, bin count, engine
// or goroutine. Each report must equal AnalyzeSerial's, both when its sweep
// returns and after every other sweep has run: nothing a report holds may
// be memory a later sweep refills.
func TestSweepReuseMatchesSerial(t *testing.T) {
	type job struct {
		tr     *trace.Trace
		bins   []int
		engine Engine
	}
	var jobs []job
	for i, name := range []string{"AMG", "BoxLib CNS", "PARTISN", "CrystalRouter"} {
		app, _ := tracegen.ByName(name)
		tr := app.Generate(tracegen.Config{Scale: 5})
		jobs = append(jobs,
			job{tr, []int{1, 32, 128}, EngineOptimistic},
			job{tr, []int{1 << (i + 2)}, EngineOptimistic},
			job{tr, []int{128, 8}, []Engine{EngineList, EngineBin, EngineAdaptive, EngineRank}[i]})
	}
	want := make([][]*Report, len(jobs))
	for j, jb := range jobs {
		for _, b := range jb.bins {
			rep, err := AnalyzeSerial(jb.tr, Config{Bins: b, Engine: jb.engine})
			if err != nil {
				t.Fatal(err)
			}
			want[j] = append(want[j], rep)
		}
	}

	const goroutines, rounds = 4, 2
	got := make([][]*Report, goroutines) // each goroutine's reports, in its order
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for k := range jobs {
					j := (k + g) % len(jobs) // each goroutine in its own order
					jb := jobs[j]
					reps, err := Sweep(jb.tr, jb.bins, Config{Engine: jb.engine, Workers: 1 + g%2})
					if err != nil {
						t.Error(err)
						return
					}
					for bi := range reps {
						mustEqualReports(t, fmt.Sprintf("goroutine %d, job %d, bins %d", g, j, jb.bins[bi]), want[j][bi], reps[bi])
					}
					got[g] = append(got[g], reps...)
				}
			}
		}()
	}
	wg.Wait()
	for g := range got {
		i := 0
		for r := 0; r < rounds; r++ {
			for k := range jobs {
				j := (k + g) % len(jobs)
				for bi := range jobs[j].bins {
					if i < len(got[g]) {
						mustEqualReports(t, fmt.Sprintf("goroutine %d, job %d, afterwards", g, j), want[j][bi], got[g][i])
					}
					i++
				}
			}
		}
	}
}

func TestScheduleReuse(t *testing.T) {
	app, _ := tracegen.ByName("AMG")
	tr := app.Generate(tracegen.Config{Scale: 10})
	cfg := Config{}
	sched := buildSchedule(tr, cfg)
	if len(sched.shards) != tr.NumRanks() {
		t.Fatalf("shards = %d, ranks = %d", len(sched.shards), tr.NumRanks())
	}
	steps := 0
	for i := range sched.shards {
		steps += len(sched.shards[i].steps)
	}
	if steps == 0 {
		t.Fatal("empty schedule for a p2p app")
	}
	// One schedule replayed at two bin counts must equal fresh analyses.
	for _, b := range []int{1, 32} {
		c := cfg
		c.Bins = b
		fromSched, err := sched.sweep([]int{b}, c)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := AnalyzeSerial(tr, c)
		if err != nil {
			t.Fatal(err)
		}
		mustEqualReports(t, "reuse", fresh, fromSched[0])
	}
}

func TestParallelValidationAndErrors(t *testing.T) {
	tr := twoRankTrace([]int32{1})
	if _, err := Analyze(tr, Config{Bins: 0}); err == nil {
		t.Fatal("zero bins accepted")
	}
	if _, err := Sweep(tr, []int{4, 0}, Config{}); err == nil {
		t.Fatal("zero bins accepted in sweep")
	}
	big := make([]int32, 64)
	for i := range big {
		big[i] = int32(i)
	}
	over := twoRankTrace(big)
	_, err := Analyze(over, Config{Bins: 4, MaxReceives: 8, Workers: 4})
	if err == nil {
		t.Fatal("table overflow not reported by parallel path")
	}
	if !strings.Contains(err.Error(), "rank 1") {
		t.Fatalf("overflow error lost its rank: %v", err)
	}
	if _, err := Sweep(over, []int{4, 8}, Config{MaxReceives: 8, Workers: 4}); err == nil {
		t.Fatal("table overflow not reported by sweep")
	}
}

func TestSweepValidatesUpFront(t *testing.T) {
	app, _ := tracegen.ByName("AMG")
	tr := app.Generate(tracegen.Config{Scale: 5})

	// Non-power-of-two bin counts fail before any shard runs, with one
	// clear error naming the offending count.
	_, err := Sweep(tr, []int{4, 3}, Config{})
	if err == nil || !strings.Contains(err.Error(), "power of two") {
		t.Fatalf("non-power-of-two sweep: %v", err)
	}
	if _, err := Analyze(tr, Config{Bins: 3}); err == nil {
		t.Fatal("single-report path accepted non-power-of-two bins")
	}
	if _, err := AnalyzeSerial(tr, Config{Bins: 6}); err == nil {
		t.Fatal("serial path accepted non-power-of-two bins")
	}

	// Duplicates dedupe (first occurrence wins) instead of replaying twice.
	reps, err := Sweep(tr, []int{1, 32, 1, 32, 32}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 2 || reps[0].Bins != 1 || reps[1].Bins != 32 {
		t.Fatalf("dedupe failed: %d reports", len(reps))
	}

	if _, err := Sweep(tr, nil, Config{}); err == nil {
		t.Fatal("empty sweep accepted")
	}

	if got, err := normalizeBins([]int{8, 2, 8, 1}); err != nil || !reflect.DeepEqual(got, []int{8, 2, 1}) {
		t.Fatalf("normalizeBins = %v, %v", got, err)
	}
}

func TestSweepConfigs(t *testing.T) {
	app, _ := tracegen.ByName("BoxLib CNS")
	tr := app.Generate(tracegen.Config{Scale: 10})
	pool := Config{Workers: 8}
	sched := buildSchedule(tr, pool)

	// One schedule swept under every engine: each report must equal a
	// fresh serial analysis at that engine and bin count.
	for _, cfg := range []Config{
		{Engine: EngineOptimistic, Workers: 8},
		{Engine: EngineList, Workers: 8},
		{Engine: EngineBin, Workers: 8},
	} {
		bins := []int{1, 32, 64}
		reps, err := sched.sweep(bins, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(reps) != len(bins) {
			t.Fatalf("%s: got %d reports for %d bin counts", cfg.Engine, len(reps), len(bins))
		}
		for i, b := range bins {
			c := cfg
			c.Bins = b
			serial, err := AnalyzeSerial(tr, c)
			if err != nil {
				t.Fatal(err)
			}
			mustEqualReports(t, "sweepconfigs/"+string(cfg.Engine), serial, reps[i])
		}
	}

	// Bad bins, an unknown engine and an empty sweep fail before any
	// shard runs.
	if _, err := sched.sweep([]int{32, 5}, pool); err == nil || !strings.Contains(err.Error(), "power of two") {
		t.Fatalf("bad bins: %v", err)
	}
	if _, err := sched.sweep([]int{4}, Config{Engine: "nope", Workers: 8}); err == nil || !strings.Contains(err.Error(), "unknown engine") {
		t.Fatalf("bad engine: %v", err)
	}
	if _, err := sched.sweep(nil, pool); err == nil {
		t.Fatal("empty sweep accepted")
	}
}

func TestParallelEmptyTrace(t *testing.T) {
	tr := &trace.Trace{App: "empty"}
	rep, err := Analyze(tr, Config{Bins: 4, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	serial, err := AnalyzeSerial(tr, Config{Bins: 4})
	if err != nil {
		t.Fatal(err)
	}
	mustEqualReports(t, "empty", serial, rep)
}

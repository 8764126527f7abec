package replay

import (
	"strings"
	"testing"

	"repro/internal/analyzer"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

// Golden end-to-end observability test: one generated trace replayed
// through the offloaded engine at in-flight block depths 1, 4 and 8, with
// every layer's obs counters checked for internal consistency at each
// depth, for invariance across depths, and — after calibrating away
// barrier traffic — against the trace analyzer's independent emulation of
// the same trace. Run with -race.

// goldenTotals is the cross-rank counter aggregate one replay produces.
type goldenTotals struct {
	stats         core.EngineStats
	matched       uint64
	cqCompletions uint64
	launches      uint64
	retires       uint64
	dropped       uint64
}

// replayGolden runs tr through the offload engine at the given in-flight
// depth with tracing enabled and aggregates the rank sinks.
func replayGolden(t *testing.T, tr *trace.Trace, depth int) (*Result, goldenTotals) {
	t.Helper()
	matcher := MatcherConfig()
	matcher.InFlightBlocks = depth
	// Rings sized so nothing is overwritten: the event-count invariants
	// below need a complete record.
	res, err := replayInProc(tr, mpi.Options{
		Engine:  mpi.EngineOffload,
		Matcher: matcher,
		Obs:     obs.Options{TraceEvents: 1 << 15},
	})
	if err != nil {
		t.Fatalf("depth %d: %v", depth, err)
	}

	var tot goldenTotals
	tot.stats = res.Matcher
	for _, ns := range res.Sinks {
		if ns.Name == "fabric" {
			continue
		}
		c := &ns.Sink.Counters
		tot.matched += c.Load(obs.CtrMatched)
		tot.cqCompletions += c.Load(obs.CtrCQCompletions)
		_, d := ns.Sink.Recorded()
		tot.dropped += d
		for _, e := range ns.Sink.Events() {
			switch e.Kind {
			case obs.EvBlockLaunch:
				tot.launches++
			case obs.EvBlockRetire:
				tot.retires++
			}
		}
	}
	return res, tot
}

func TestGoldenReplayObsCrossDepth(t *testing.T) {
	app, ok := tracegen.ByName("AMG")
	if !ok {
		t.Fatal("unknown app AMG")
	}
	tr := app.Generate(tracegen.Config{Scale: 10})

	// Calibration run: the same ranks and collective schedule with all
	// point-to-point traffic removed. Replay turns collectives into real
	// barriers that themselves flow through the matching engine, so the
	// barrier contribution to the counters is measured, not guessed.
	calibTr := &trace.Trace{App: tr.App, Ranks: make([]trace.RankTrace, len(tr.Ranks))}
	for i := range tr.Ranks {
		calibTr.Ranks[i].Rank = tr.Ranks[i].Rank
		for _, e := range tr.Ranks[i].Events {
			if e.Kind == trace.OpCollective {
				calibTr.Ranks[i].Events = append(calibTr.Ranks[i].Events, e)
			}
		}
	}
	_, calib := replayGolden(t, calibTr, 1)

	depths := []int{1, 4, 8}
	totals := make([]goldenTotals, len(depths))
	for i, depth := range depths {
		res, tot := replayGolden(t, tr, depth)
		totals[i] = tot
		st := tot.stats

		// Per-depth engine invariants.
		if st.Messages == 0 || tot.matched == 0 {
			t.Fatalf("depth %d: no traffic observed (%+v)", depth, st)
		}
		if st.Retires != st.Blocks {
			t.Errorf("depth %d: retires=%d blocks=%d — engine did not quiesce", depth, st.Retires, st.Blocks)
		}
		if st.FastPath+st.SlowPath != st.Conflicts {
			t.Errorf("depth %d: fast=%d slow=%d conflicts=%d", depth, st.FastPath, st.SlowPath, st.Conflicts)
		}
		if depth == 1 && st.Steals != 0 {
			t.Errorf("depth 1 stole %d descriptors; steals need overlapping blocks", st.Steals)
		}

		// Event-ring invariants: nothing overwritten, and the launch/retire
		// event streams agree with the counters exactly.
		if tot.dropped != 0 {
			t.Fatalf("depth %d: %d events overwritten; grow the test ring", depth, tot.dropped)
		}
		if tot.launches != st.Blocks || tot.retires != st.Blocks {
			t.Errorf("depth %d: launch/retire events = %d/%d, counters say %d blocks",
				depth, tot.launches, tot.retires, st.Blocks)
		}

		// The replay itself saw the whole trace.
		if res.Sends == 0 || res.Recvs == 0 {
			t.Fatalf("depth %d: sends=%d recvs=%d", depth, res.Sends, res.Recvs)
		}
	}

	// Cross-depth invariance: the engine pipelines more blocks at higher
	// depths, but the traffic — messages entering blocks, pairings
	// completed, completions drained — is identical.
	for i := 1; i < len(depths); i++ {
		a, b := totals[0], totals[i]
		if a.stats.Messages != b.stats.Messages {
			t.Errorf("messages diverge across depths: d1=%d d%d=%d",
				a.stats.Messages, depths[i], b.stats.Messages)
		}
		if a.matched != b.matched {
			t.Errorf("matched diverges across depths: d1=%d d%d=%d",
				a.matched, depths[i], b.matched)
		}
		if a.cqCompletions != b.cqCompletions {
			t.Errorf("cq completions diverge across depths: d1=%d d%d=%d",
				a.cqCompletions, depths[i], b.cqCompletions)
		}
	}

	// Against the analyzer: its emulation of the same trace counts one
	// pairing per traced send/recv, with no barrier traffic. Subtracting
	// the calibrated barrier contribution from the live run must land on
	// the same number.
	rep, err := analyzer.Analyze(tr, analyzer.Config{Bins: 256})
	if err != nil {
		t.Fatal(err)
	}
	dataMatched := totals[0].matched - calib.matched
	if dataMatched != rep.Matched {
		t.Errorf("replay matched %d data pairings (total %d - %d barrier), analyzer reports %d",
			dataMatched, totals[0].matched, calib.matched, rep.Matched)
	}
}

// TestGoldenReplaySinkNames pins the sink topology the exporters rely on:
// one sink per rank plus the fabric.
func TestGoldenReplaySinkNames(t *testing.T) {
	app, _ := tracegen.ByName("AMG")
	tr := app.Generate(tracegen.Config{Scale: 5})
	res, err := replayInProc(tr, mpi.Options{Engine: mpi.EngineHost})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sinks) != tr.NumRanks()+1 {
		t.Fatalf("%d sinks for %d ranks", len(res.Sinks), tr.NumRanks())
	}
	var fabric bool
	for _, ns := range res.Sinks {
		if ns.Sink == nil {
			t.Errorf("sink %q is nil", ns.Name)
		}
		switch {
		case ns.Name == "fabric":
			fabric = true
		case strings.HasPrefix(ns.Name, "rank"):
		default:
			t.Errorf("unexpected sink name %q", ns.Name)
		}
	}
	if !fabric {
		t.Error("no fabric sink")
	}
}

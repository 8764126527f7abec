package replay

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

// replayInProc replays tr over one in-process world of its size built from
// opts, with the receive depth and matcher shape cmd/replay runs on unless
// opts sets its own.
func replayInProc(tr *trace.Trace, opts mpi.Options) (*Result, error) {
	if opts.RecvDepth == 0 {
		opts.RecvDepth = 64
	}
	if opts.Matcher == (core.Config{}) {
		opts.Matcher = MatcherConfig()
	}
	w, err := mpi.NewWorld(tr.NumRanks(), opts)
	if err != nil {
		return nil, err
	}
	return RunWorlds(tr, []*mpi.World{w})
}

func replayApp(t *testing.T, name string, scale int, engine mpi.EngineKind) *Result {
	t.Helper()
	app, ok := tracegen.ByName(name)
	if !ok {
		t.Fatalf("unknown app %s", name)
	}
	tr := app.Generate(tracegen.Config{Scale: scale})
	res, err := replayInProc(tr, mpi.Options{Engine: engine})
	if err != nil {
		t.Fatal(err)
	}
	mix := tr.Mix()
	if res.Sends*2 != mix.P2P {
		t.Fatalf("%s: replayed %d sends + %d recvs, trace has %d p2p ops",
			name, res.Sends, res.Recvs, mix.P2P)
	}
	return res
}

func TestReplayAMGBothEngines(t *testing.T) {
	for _, engine := range []mpi.EngineKind{mpi.EngineHost, mpi.EngineOffload} {
		t.Run(engine.String(), func(t *testing.T) {
			res := replayApp(t, "AMG", 25, engine)
			if res.Ranks != 8 {
				t.Fatalf("ranks = %d", res.Ranks)
			}
			if res.Collectives == 0 {
				t.Fatal("AMG replay ran no collectives")
			}
			if engine == mpi.EngineOffload && res.Matcher.Messages == 0 {
				t.Fatal("offloaded matcher saw no traffic")
			}
			if !strings.Contains(res.String(), "replayed 8 ranks") {
				t.Fatalf("summary: %s", res)
			}
		})
	}
}

func TestReplayStencilOffloaded(t *testing.T) {
	// BoxLib CNS: 64 ranks, 26-neighbor ghost exchange, deepest queues.
	res := replayApp(t, "BoxLib CNS", 10, mpi.EngineOffload)
	if res.Ranks != 64 {
		t.Fatalf("ranks = %d", res.Ranks)
	}
	// Replay has no global clock, so a rank can send before its peer posts
	// (unlike the analyzer's trace-timeline emulation): unexpected messages
	// are expected. What must hold is that every data message reached a
	// matcher and the run drained completely (Waitall + final barrier).
	if res.Matcher.Messages == 0 {
		t.Fatal("no messages reached the offloaded matchers")
	}
}

func TestReplayUnexpectedHeavy(t *testing.T) {
	// CrystalRouter sends before posting: replay must flow through the
	// unexpected store. (Timing differs from the trace's timeline, so some
	// receives may win the race; the shape — many unexpected — remains.)
	app, _ := tracegen.ByName("CrystalRouter")
	tr := app.Generate(tracegen.Config{Scale: 5})
	res, err := replayInProc(tr, mpi.Options{Engine: mpi.EngineOffload})
	if err != nil {
		t.Fatal(err)
	}
	if res.Matcher.Unexpected == 0 {
		t.Fatal("CrystalRouter replay produced no unexpected messages")
	}
}

func TestReplayWildcards(t *testing.T) {
	// MOCFE uses AnySource receives.
	res := replayApp(t, "MOCFE", 10, mpi.EngineOffload)
	if res.Recvs == 0 {
		t.Fatal("no receives replayed")
	}
}

func TestReplaySweepCompatibleSequences(t *testing.T) {
	// PARTISN's same-(source,tag) pipelines exercise compatible sequences
	// in a live run.
	res := replayApp(t, "PARTISN", 5, mpi.EngineOffload)
	if res.Matcher.Messages == 0 {
		t.Fatal("no matched traffic")
	}
}

func TestReplayEmptyTrace(t *testing.T) {
	w, err := mpi.NewWorld(1, mpi.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunWorlds(&trace.Trace{}, []*mpi.World{w}); err == nil {
		t.Fatal("empty trace accepted")
	}
}

func TestReplaySkipsReservedComms(t *testing.T) {
	tr := &trace.Trace{App: "x", Ranks: []trace.RankTrace{{Rank: 0, Events: []trace.Event{
		{Kind: trace.OpRecv, Peer: 0, Tag: 1, Comm: -5},
		{Kind: trace.OpSend, Peer: 0, Tag: 1, Comm: -5},
	}}}}
	res, err := replayInProc(tr, mpi.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sends != 0 || res.Recvs != 0 {
		t.Fatalf("reserved-comm ops replayed: %+v", res)
	}
}

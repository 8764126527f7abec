package bench

import (
	"testing"

	"repro/internal/analyzer"
	"repro/internal/core"
	"repro/internal/match"
	"repro/internal/mpi"
)

func quick(cfg MsgRateConfig) MsgRateConfig {
	cfg.K = 32
	cfg.Reps = 5
	return cfg
}

func TestMsgRateScenariosRun(t *testing.T) {
	for _, cfg := range Figure8Scenarios() {
		cfg := quick(cfg)
		t.Run(cfg.Label, func(t *testing.T) {
			res, err := RunMsgRate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Messages != 32*5 {
				t.Fatalf("messages = %d", res.Messages)
			}
			if res.MsgPerSec <= 0 {
				t.Fatalf("rate = %f", res.MsgPerSec)
			}
			if res.String() == "" {
				t.Fatal("empty render")
			}
		})
	}
}

func TestMsgRateConflictPathsExercised(t *testing.T) {
	scens := Figure8Scenarios()
	fp, err := RunMsgRate(quick(scens[1])) // WC-FP
	if err != nil {
		t.Fatal(err)
	}
	if fp.MatchStats.FastPath == 0 {
		t.Errorf("WC-FP scenario never took the fast path: %+v", fp.MatchStats)
	}
	sp, err := RunMsgRate(quick(scens[2])) // WC-SP
	if err != nil {
		t.Fatal(err)
	}
	if sp.MatchStats.SlowPath == 0 {
		t.Errorf("WC-SP scenario never took the slow path: %+v", sp.MatchStats)
	}
	if sp.MatchStats.FastPath != 0 {
		t.Errorf("WC-SP took the fast path despite DisableFastPath: %+v", sp.MatchStats)
	}
	nc, err := RunMsgRate(quick(scens[0])) // NC
	if err != nil {
		t.Fatal(err)
	}
	if nc.MatchStats.Conflicts != 0 {
		t.Errorf("NC scenario recorded conflicts: %+v", nc.MatchStats)
	}
	if nc.Engine != mpi.EngineOffload {
		t.Errorf("NC engine = %v", nc.Engine)
	}
}

func TestFigure6Driver(t *testing.T) {
	reps, err := RunFigure6(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 16 {
		t.Fatalf("reports = %d, want 16", len(reps))
	}
	p2pOnly, collOnly := 0, 0
	for _, r := range reps {
		if r.Mix.Collective == 0 && r.Mix.P2P > 0 {
			p2pOnly++
		}
		if r.Mix.P2P == 0 && r.Mix.Collective > 0 {
			collOnly++
		}
	}
	if p2pOnly < 3 {
		t.Errorf("p2p-only apps = %d, paper reports 3+", p2pOnly)
	}
	if collOnly != 2 {
		t.Errorf("collectives-only apps = %d, paper reports 2", collOnly)
	}
}

func TestFigure7DriverAndReduction(t *testing.T) {
	// The paper's headline bin counts (the artifact's 1…256 sweep is
	// `traceanalyzer -report depth -bins 1,2,4,8,16,32,64,128,256`).
	bins := []int{1, 32, 128}
	byApp, err := RunFigure7(10, bins, analyzer.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(byApp) != 16 {
		t.Fatalf("apps = %d", len(byApp))
	}
	red := Reduce(byApp, bins)
	if red.AvgDepth[0] <= red.AvgDepth[1] || red.AvgDepth[1] < red.AvgDepth[2] {
		t.Fatalf("depth not monotone: %v", red.AvgDepth)
	}
	// Paper: −90% at 32 bins, −95% at 128. The synthetic traces must show
	// the same order of magnitude of collapse.
	if red.ReductionPct[1] < 70 {
		t.Errorf("32-bin reduction = %.1f%%, paper reports ~90%%", red.ReductionPct[1])
	}
	if red.ReductionPct[2] < red.ReductionPct[1] {
		t.Errorf("128-bin reduction (%.1f%%) below 32-bin (%.1f%%)",
			red.ReductionPct[2], red.ReductionPct[1])
	}
}

func TestModeledFigure8Shape(t *testing.T) {
	if raceEnabled {
		t.Skip("the NC-vs-MPI-CPU band depends on block fill, which the race detector's slowdown moves")
	}
	// The modeled rates must reproduce the paper's qualitative ordering
	// regardless of host core count: RDMA-CPU highest; MPI-CPU and
	// Optimistic-DPA NC comparable; WC-FP below NC; WC-SP lowest.
	rates, err := RunModeledFigure8(DefaultCostModel(), 64, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string]ModeledRate{}
	for _, r := range rates {
		byLabel[r.Label] = r
	}
	nc := byLabel["Optimistic-DPA NC"].MsgPerSec
	fp := byLabel["Optimistic-DPA WC-FP"].MsgPerSec
	sp := byLabel["Optimistic-DPA WC-SP"].MsgPerSec
	host := byLabel["MPI-CPU"].MsgPerSec
	raw := byLabel["RDMA-CPU"].MsgPerSec

	if raw <= host || raw <= nc {
		t.Errorf("RDMA-CPU (%.0f) must be the reference peak (host %.0f, nc %.0f)", raw, host, nc)
	}
	if nc < host*0.7 || nc > host*1.4 {
		t.Errorf("NC (%.0f) not comparable to MPI-CPU (%.0f)", nc, host)
	}
	if fp >= nc {
		t.Errorf("WC-FP (%.0f) should fall below NC (%.0f)", fp, nc)
	}
	if sp >= fp {
		t.Errorf("WC-SP (%.0f) should be the slowest (fp %.0f)", sp, fp)
	}
	if byLabel["Optimistic-DPA NC"].String() == "" {
		t.Error("empty render")
	}
}

func TestCostModelEdgeCases(t *testing.T) {
	cm := DefaultCostModel()
	if r := cm.ModelOffload("x", core.EngineStats{}, match.Stats{}); r.MsgPerSec != 0 {
		t.Error("zero-message offload model must be zero")
	}
	if r := cm.ModelHost("x", match.Stats{}); r.MsgPerSec != 0 {
		t.Error("zero-message host model must be zero")
	}
	if r := cm.ModelRaw("x", 0); r.MsgPerSec != 0 {
		t.Error("zero-message raw model must be zero")
	}
	cm.InFlight = 0 // degenerate depth clamps to 1
	r := cm.ModelOffload("x", core.EngineStats{Messages: 10}, match.Stats{ArriveSearches: 10})
	if r.MsgPerSec <= 0 {
		t.Error("degenerate depth broke the model")
	}
}

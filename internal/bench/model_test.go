package bench

import (
	"encoding/json"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/match"
	"repro/internal/mpi"
)

// TestDegenerateModelNeverInf is the regression test for the rate() guard:
// a zeroed cost model (reachable from a zeroed JSON config) must yield a
// zero, marshalable ModeledRate — never +Inf, which encoding/json refuses.
func TestDegenerateModelNeverInf(t *testing.T) {
	var cm CostModel // all stage costs zero
	st := core.EngineStats{Messages: 100, Blocks: 4}
	depth := match.Stats{ArriveSearches: 100, ArriveTraversed: 50, Matched: 100}

	for _, r := range []ModeledRate{
		cm.ModelOffload("offload", st, depth),
		cm.ModelHost("host", depth),
		cm.ModelRaw("raw", 100),
	} {
		if r.MsgPerSec > 0 {
			t.Errorf("%s: degenerate model reported a rate", r.Label)
		}
		if math.IsInf(r.MsgPerSec, 0) || math.IsNaN(r.MsgPerSec) ||
			math.IsInf(r.NSPerMsg, 0) || math.IsNaN(r.NSPerMsg) {
			t.Errorf("%s: degenerate model leaked Inf/NaN: %+v", r.Label, r)
		}
		if _, err := json.Marshal(r); err != nil {
			t.Errorf("%s: marshal failed: %v", r.Label, err)
		}
	}

	// A healthy model still validates.
	if r := DefaultCostModel().ModelHost("ok", depth); r.MsgPerSec <= 0 {
		t.Errorf("healthy model reported invalid: %+v", r)
	}
}

// TestDeliveredMessages pins the unified denominator: delivered counts
// messages entering matching, independent of how arrivals were batched
// into searches and of post-side re-pairings.
func TestDeliveredMessages(t *testing.T) {
	// 400 delivered messages arriving as 100 batched searches: 300 matched
	// at arrival, 100 stored unexpected; 80 posts later drained 60 of the
	// unexpected (60 post-side Matched) and queued 20.
	s := match.Stats{
		ArriveSearches:  100,
		ArriveTraversed: 800,
		Matched:         300 + 60,
		Unexpected:      100,
		PostSearches:    80,
		Queued:          20,
	}
	if got := s.Delivered(); got != 400 {
		t.Fatalf("Delivered() = %d, want 400", got)
	}

	// ModelHost must divide by the 400 delivered messages, not the 100
	// frame searches: probes/msg = 800/400 = 2.
	cm := DefaultCostModel()
	want := cm.HostRecvNS + cm.HostMatchNS + 2*cm.HostProbeNS
	r := cm.ModelHost("coalesced", s)
	if r.NSPerMsg != want {
		t.Fatalf("host stage = %v ns/msg, want %v (delivered-message denominator)", r.NSPerMsg, want)
	}
}

// TestHostOffloadParityCoalesced pins host/offload denominator parity on a
// coalesced run: both engines see the same message stream, so both models
// must price against the same delivered-message count.
func TestHostOffloadParityCoalesced(t *testing.T) {
	const k, reps = 24, 12
	run := func(engine mpi.EngineKind) *MsgRateResult {
		res, err := RunMsgRate(MsgRateConfig{
			Label: "parity", Engine: engine,
			K: k, Reps: reps, CoalesceBytes: 256,
		})
		if err != nil {
			t.Fatalf("%v: %v", engine, err)
		}
		return res
	}
	host := run(mpi.EngineHost)
	off := run(mpi.EngineOffload)

	wantMsgs := uint64(k * reps)
	if got := host.Depth.Delivered(); got != wantMsgs {
		t.Errorf("host delivered %d messages, want %d", got, wantMsgs)
	}
	if got := off.MatchStats.Messages; got != wantMsgs {
		t.Errorf("offload engine counted %d messages, want %d", got, wantMsgs)
	}
	if h, o := host.Depth.Delivered(), off.MatchStats.Messages; h != o {
		t.Errorf("host (%d) and offload (%d) denominators diverge on a coalesced run", h, o)
	}

	cm := DefaultCostModel()
	cm.BatchWidth = host.BatchWidth
	if r := cm.ModelHost("host", host.Depth); r.MsgPerSec <= 0 {
		t.Errorf("host model invalid on coalesced run: %+v", r)
	}
	cm.BatchWidth = off.BatchWidth
	if r := cm.ModelOffload("offload", off.MatchStats, off.Depth); r.MsgPerSec <= 0 {
		t.Errorf("offload model invalid on coalesced run: %+v", r)
	}
}

// TestModelOffloadDeliveredFallback: analyzer-derived statistics carry no
// EngineStats; the offload model falls back to the depth profile's
// delivered count instead of reporting zero.
func TestModelOffloadDeliveredFallback(t *testing.T) {
	depth := match.Stats{ArriveSearches: 50, ArriveTraversed: 100, Matched: 50}
	r := DefaultCostModel().ModelOffload("fallback", core.EngineStats{}, depth)
	if r.MsgPerSec <= 0 {
		t.Fatalf("offload model with depth-only stats should be valid, got %+v", r)
	}
}

// TestModelFootprintBytes pins the footprint model's composition.
func TestModelFootprintBytes(t *testing.T) {
	base := ModelFootprintBytes(core.Config{
		Bins: 128, MaxReceives: 1024, BlockSize: 32, InFlightBlocks: 1,
	})
	want := core.IndexTables*128*core.BinModelBytes +
		1024*core.DescriptorModelBytes + 32*EnvelopeModelBytes
	if base != want {
		t.Fatalf("base footprint = %d, want %d", base, want)
	}

	deeper := ModelFootprintBytes(core.Config{
		Bins: 128, MaxReceives: 1024, BlockSize: 32, InFlightBlocks: 8,
	})
	if deeper-base != 7*32*EnvelopeModelBytes {
		t.Fatalf("in-flight slots: %d -> %d, want +%d", base, deeper, 7*32*EnvelopeModelBytes)
	}

	// InFlightBlocks 0 normalizes to 1, as in core.Config.
	if z := ModelFootprintBytes(core.Config{Bins: 128, MaxReceives: 1024, BlockSize: 32}); z != base {
		t.Fatalf("zero InFlightBlocks = %d, want %d", z, base)
	}
}

package bench

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/dpa"
	"repro/internal/match"
)

// Modeled message rate. The wall-clock Figure 8 numbers are distorted when
// the simulator runs on fewer cores than DPA threads (EXPERIMENTS.md): the
// goroutine scheduler charges context switches real silicon does not pay,
// and genuinely parallel phases serialize. The cost model below instead
// derives each configuration's throughput from the *counted* work the
// engines report — probes, conflict resolutions — under a pipeline
// bottleneck model: a back-to-back message sequence streams through wire,
// matching, and protocol stages, and the sustained rate is set by the
// slowest stage. Matching on the DPA is a run-to-completion handler per
// message (expensive on a lightweight core) whose *throughput* divides by
// the thread count; matching on the host is cheap per operation but
// strictly serial. Absolute numbers are only as good as the constants; the
// ordering and rough ratios are the point — and they are now independent
// of how many cores the simulation host happens to have.
type CostModel struct {
	// WireNS is the per-message fabric/NIC pipeline occupancy, common to
	// every configuration.
	WireNS float64
	// WireFrameNS is the per-frame fabric/NIC occupancy when eager
	// coalescing batches messages into multi-message wire frames: the
	// doorbell, descriptor, and CQE costs are paid once per frame and
	// amortize over its width. PerMsgHeaderNS is the residual per-message
	// cost inside a frame (sub-header bytes on the wire, sub-record parse).
	// With BatchWidth <= 1 the wire stage is the classic WireNS.
	WireFrameNS    float64
	PerMsgHeaderNS float64
	// BatchWidth is the mean messages per wire frame (a measured quantity:
	// obs.HistCoalesceWidth Mean). 0 or 1 models coalescing off.
	BatchWidth float64
	// HostRecvNS is the host CPU's per-message receive path without any
	// matching (the RDMA-CPU stage cost).
	HostRecvNS float64
	// HostMatchNS is the host's fixed matching overhead per message, and
	// HostProbeNS one PRQ probe, both on the serial host core.
	HostMatchNS float64
	HostProbeNS float64
	// DPAHandlerNS is one run-to-completion matching handler on a DPA core
	// (CQE dispatch, header parse, index walk setup, booking, protocol
	// hand-off) — an order of magnitude above the host's per-message cost,
	// as DPA cores are slow; parallelism is what wins it back.
	DPAHandlerNS float64
	// DPABarrierNS is the partial-barrier share per message.
	DPABarrierNS float64
	// DPAProbeNS is one index-chain probe on a DPA core.
	DPAProbeNS float64
	// DPAFastNS is one fast-path conflict resolution (§III-D3a).
	DPAFastNS float64
	// DPASlowNS is one slow-path round (§III-D3b); slow rounds serialize
	// against the predecessor thread, so they do not divide by the width.
	DPASlowNS float64
	// DPABlockNS is the per-block serialization: CQ batch drain, block
	// launch, the straggler bubble at the partial barrier's tail, and the
	// retirement hand-off. In the §III-A stream of blocks this cost is paid
	// back to back — block k+1's handlers do not start until block k
	// completes — so it does not divide by the width.
	DPABlockNS float64
	// InFlight is the matcher's in-flight block window (DESIGN.md §9):
	// with K blocks overlapped the per-block serialization pipelines K-wide,
	// so the block stage's occupancy divides by K. 0 means 1. It also sets
	// the parallel width (width).
	InFlight int
}

// width is the DPA parallel width: the threads RunModeledFigure8's runs
// use.
func (cm CostModel) width() float64 {
	return float64(PaperThreads(cm.InFlight))
}

// PaperThreads is the DPA thread count an offload rank running the paper's
// matcher at depth inflight gets: dpa.ThreadsFor that matcher, as
// mpi.Options derives it.
func PaperThreads(inflight int) int {
	m := PaperMatcherConfig()
	m.InFlightBlocks = inflight
	return dpa.ThreadsFor(m)
}

// DefaultCostModel reflects the §II-C architecture sketch: DPA cores are
// power-efficient and roughly an order of magnitude slower per operation
// than a server core, with thread parallelism compensating — which is
// exactly the regime where Figure 8 finds Optimistic-DPA NC comparable to
// MPI-CPU.
func DefaultCostModel() CostModel {
	return CostModel{
		WireNS:         55,
		WireFrameNS:    50,
		PerMsgHeaderNS: 5,
		HostRecvNS:     45,
		HostMatchNS:    35,
		HostProbeNS:    4,
		DPAHandlerNS:   2400,
		DPABarrierNS:   250,
		DPAProbeNS:     90,
		DPAFastNS:      700,
		DPASlowNS:      800,
		DPABlockNS:     800,
		InFlight:       1,
	}
}

// ModeledRate is the outcome of applying the cost model to one measured
// scenario. A degenerate model (all stage costs zero) or an empty
// measurement yields a zero ModeledRate, never Inf/NaN.
type ModeledRate struct {
	Label     string
	NSPerMsg  float64 // bottleneck-stage occupancy per message
	MsgPerSec float64
}

// String renders one row.
func (m ModeledRate) String() string {
	return fmt.Sprintf("%-22s %12.0f msg/s  (%.0f ns/msg bottleneck)", m.Label, m.MsgPerSec, m.NSPerMsg)
}

// wireStage is the fabric occupancy per message. Coalescing replaces N
// lone messages (N × WireNS) with one frame (WireFrameNS + N ×
// PerMsgHeaderNS), so per message the stage shrinks toward PerMsgHeaderNS
// as frames widen.
func (cm CostModel) wireStage() float64 {
	if cm.BatchWidth <= 1 {
		return cm.WireNS
	}
	return cm.WireFrameNS/cm.BatchWidth + cm.PerMsgHeaderNS
}

// hostRecvStage is the host CPU's per-message receive-path cost. A frame
// pays the CQE dispatch and header decode once; sub-records cost only
// their parse.
func (cm CostModel) hostRecvStage() float64 {
	if cm.BatchWidth <= 1 {
		return cm.HostRecvNS
	}
	return cm.HostRecvNS/cm.BatchWidth + cm.PerMsgHeaderNS
}

func rate(label string, stageNS ...float64) ModeledRate {
	worst := 0.0
	for _, s := range stageNS {
		if math.IsNaN(s) || math.IsInf(s, 0) {
			return ModeledRate{Label: label}
		}
		if s > worst {
			worst = s
		}
	}
	// A zero bottleneck means every stage cost vanished (a zeroed model):
	// 1e9/0 would be +Inf, which encoding/json refuses to marshal. Return
	// the zero (invalid) rate instead.
	if worst <= 0 {
		return ModeledRate{Label: label}
	}
	return ModeledRate{Label: label, NSPerMsg: worst, MsgPerSec: 1e9 / worst}
}

// ModelOffload computes the modeled rate of an offloaded run from its
// engine statistics and search-depth profile. The matching stage per
// message is the thread-divided handler work, plus the slow-path rounds
// that serialize against the predecessor thread, plus the per-block
// serialization pipelined K-wide by the in-flight window. The per-message
// denominator is the engine's delivered message count
// (EngineStats.Messages), falling back to the search-depth profile's
// Delivered when the engine count is absent (e.g. analyzer-derived
// statistics) — both models must price against the same message count or
// host-vs-offload comparisons skew.
func (cm CostModel) ModelOffload(label string, st core.EngineStats, depth match.Stats) ModeledRate {
	msgs := float64(st.Messages)
	if msgs == 0 {
		msgs = float64(depth.Delivered())
	}
	if msgs == 0 {
		return ModeledRate{Label: label}
	}
	inflight := float64(max(cm.InFlight, 1))
	probesPerMsg := float64(depth.ArriveTraversed) / msgs
	fastPerMsg := float64(st.FastPath) / msgs
	slowPerMsg := float64(st.SlowPath) / msgs
	blocksPerMsg := float64(st.Blocks) / msgs
	parallel := (cm.DPAHandlerNS + cm.DPABarrierNS +
		probesPerMsg*cm.DPAProbeNS + fastPerMsg*cm.DPAFastNS) / cm.width()
	matchNS := parallel + slowPerMsg*cm.DPASlowNS + blocksPerMsg*cm.DPABlockNS/inflight
	return rate(label, cm.wireStage(), matchNS)
}

// ModelHost computes the modeled rate of host list matching: the matching
// stage runs serially on one core. The per-message denominator is the
// delivered message count (match.Stats.Delivered), the same quantity
// EngineStats.Messages counts for ModelOffload — with coalesced batch
// arrivals ArriveSearches counts frames-worth of searches and would skew
// host-vs-offload comparisons.
func (cm CostModel) ModelHost(label string, depth match.Stats) ModeledRate {
	msgs := float64(depth.Delivered())
	if msgs == 0 {
		return ModeledRate{Label: label}
	}
	probesPerMsg := float64(depth.ArriveTraversed) / msgs
	return rate(label, cm.wireStage(), cm.hostRecvStage()+cm.HostMatchNS+probesPerMsg*cm.HostProbeNS)
}

// ModelRaw computes the no-matching reference.
func (cm CostModel) ModelRaw(label string, messages int) ModeledRate {
	if messages == 0 {
		return ModeledRate{Label: label}
	}
	return rate(label, cm.wireStage(), cm.hostRecvStage())
}

// RunModeledFigure8 executes the five Figure 8 scenarios (small wall-clock
// runs to collect operation counts) and converts each to a modeled rate.
// A non-zero coalesceBytes arms eager coalescing in the measurement runs; each scenario is then modeled at its *achieved* mean
// frame width (cm.BatchWidth is overridden per scenario from the measured
// obs.HistCoalesceWidth).
func RunModeledFigure8(cm CostModel, k, reps, coalesceBytes int) ([]ModeledRate, error) {
	out := make([]ModeledRate, 0, 5)
	for _, cfg := range Figure8Scenarios() {
		cfg.K, cfg.Reps = k, reps
		cfg.Matcher.InFlightBlocks = cm.InFlight
		cfg.CoalesceBytes = coalesceBytes
		res, err := RunMsgRate(cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", cfg.Label, err)
		}
		scm := cm
		scm.BatchWidth = res.BatchWidth
		switch {
		case res.MatchStats.Messages > 0:
			out = append(out, scm.ModelOffload(cfg.Label, res.MatchStats, res.Depth))
		case res.Depth.ArriveSearches > 0:
			out = append(out, scm.ModelHost(cfg.Label, res.Depth))
		default:
			out = append(out, scm.ModelRaw(cfg.Label, res.Messages))
		}
	}
	return out, nil
}

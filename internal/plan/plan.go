// Package plan is the capacity planner over the calibrated cost model:
// given an application trace and a memory budget, it prices candidate
// matcher configurations — bin count, block size, in-flight window,
// DPA threads, eager-coalescing thresholds — without running the full
// engine for each one.
//
// The split mirrors what actually varies: the *search-depth profile* of a
// workload depends only on the bin count (and engine), so the planner
// replays the trace through the analyzer once per distinct bin count
// (analyzer.Schedule.SweepConfigs, one shared worker pool) and prices
// every other dimension analytically from trace features:
//
//   - the block stage from the arrival-burst length (blocks per message is
//     exactly ceil(burst/BlockSize)/burst — block formation packs a burst
//     into full blocks plus one remainder),
//   - the wire stage from the achievable coalesce width
//     min(burst, CoalesceMsgs, CoalesceBytes/payload),
//   - the memory footprint from the bench.ModelFootprintBytes accounting
//     model, priced against the planner's posted-receive capacity and the
//     per-peer coalescer buffers.
//
// Everything the planner emits is finite by construction: rates flow
// through bench.CostModel (whose rate() guard never yields Inf/NaN) and
// Doc.Validate rejects any non-finite field before a document is written.
package plan

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/analyzer"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dpa"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Candidate is one matcher configuration under evaluation.
type Candidate struct {
	// Bins per hash table (power of two).
	Bins int
	// BlockSize is the arrival-block width (1..core.MaxBlockSize).
	BlockSize int
	// InFlight is the in-flight block window K (1..core.MaxInFlightBlocks).
	InFlight int
	// Threads is the DPA parallel width (1..dpa.MaxThreads).
	Threads int
	// CoalesceBytes / CoalesceMsgs arm sender-side eager coalescing
	// (both zero = off).
	CoalesceBytes int
	CoalesceMsgs  int
}

// DefaultCandidate is the current default: the paper's §VI prototype
// geometry with coalescing off.
func DefaultCandidate() Candidate {
	pc := bench.PaperMatcherConfig()
	return Candidate{
		Bins:      pc.Bins,
		BlockSize: pc.BlockSize,
		InFlight:  1,
		Threads:   dpa.DefaultThreads,
	}
}

// String renders the candidate compactly.
func (c Candidate) String() string {
	s := fmt.Sprintf("bins=%d block=%d K=%d threads=%d", c.Bins, c.BlockSize, c.InFlight, c.Threads)
	if c.CoalesceBytes > 0 || c.CoalesceMsgs > 0 {
		s += fmt.Sprintf(" coalesce=%dB/%d", c.CoalesceBytes, c.CoalesceMsgs)
	}
	return s
}

// Validate checks the candidate against the engine's hard limits.
func (c Candidate) Validate() error {
	if c.Bins < 1 || c.Bins&(c.Bins-1) != 0 {
		return fmt.Errorf("plan: Bins must be a power of two >= 1, got %d", c.Bins)
	}
	if c.BlockSize < 1 || c.BlockSize > core.MaxBlockSize {
		return fmt.Errorf("plan: BlockSize must be in [1,%d], got %d", core.MaxBlockSize, c.BlockSize)
	}
	if c.InFlight < 1 || c.InFlight > core.MaxInFlightBlocks {
		return fmt.Errorf("plan: InFlight must be in [1,%d], got %d", core.MaxInFlightBlocks, c.InFlight)
	}
	if c.Threads < 1 || c.Threads > dpa.MaxThreads {
		return fmt.Errorf("plan: Threads must be in [1,%d], got %d", dpa.MaxThreads, c.Threads)
	}
	if c.CoalesceBytes < 0 || c.CoalesceMsgs < 0 {
		return fmt.Errorf("plan: negative coalesce thresholds")
	}
	return nil
}

// Features are the trace-derived quantities the analytic stages price
// against. They are independent of any candidate configuration.
type Features struct {
	App   string
	Procs int
	// Sends is the total eager send count across ranks.
	Sends int
	// MeanBurst is the mean arrival-run length at a destination: the
	// number of consecutive inbound messages between progress calls, which
	// bounds both block fill and achievable coalesce width.
	MeanBurst float64
	// MaxBurst is the longest single arrival run.
	MaxBurst int
	// AvgPayloadBytes approximates the mean eager payload from the
	// trace's element counts.
	AvgPayloadBytes float64
	// MeanPeers / MaxPeers count distinct send destinations per rank —
	// the coalescer holds one staging buffer per peer.
	MeanPeers float64
	MaxPeers  int
}

// Config parameterizes a Planner.
type Config struct {
	// Cost is the calibrated cost model (zero value: DefaultCostModel).
	// The per-candidate fields (Threads, InFlight, BatchWidth) are
	// overwritten for every estimate.
	Cost bench.CostModel
	// MaxReceives is the posted-receive table capacity the plan assumes
	// (default: the paper configuration's). It prices the descriptor pool
	// and bounds feasibility against the trace's peak posted depth.
	MaxReceives int
	// BudgetBytes caps the modeled per-rank memory footprint; candidates
	// above it are rejected. 0 = unlimited.
	BudgetBytes int64
	// Workers bounds the analyzer replay pool (0 = GOMAXPROCS).
	Workers int
	// Obs, when non-nil, receives planner counters and phase events.
	Obs *obs.Sink
}

func (c *Config) fill() {
	if c.Cost == (bench.CostModel{}) {
		c.Cost = bench.DefaultCostModel()
	}
	if c.MaxReceives == 0 {
		c.MaxReceives = bench.PaperMatcherConfig().MaxReceives
	}
}

// Estimate is one candidate's predicted behaviour on the planned trace.
type Estimate struct {
	Candidate Candidate

	// Offload / Host are the modeled rates for the offloaded engine and
	// the host list-matching baseline on this workload.
	Offload bench.ModeledRate
	Host    bench.ModeledRate
	// Stages decomposes the offload pipeline (whatif's delta view).
	Stages bench.OffloadStages

	// QueueMean / QueueMax are the replayed search-depth statistics at
	// the candidate's bin count (the Figure 7 quantities).
	QueueMean float64
	QueueMax  uint64
	// PostedMax is the replay's peak posted-receive queue length.
	PostedMax int

	// BinConflictProb is the probability that a message shares a key or a
	// bin with another message of its arrival block (pairwise collision
	// compounded over the block fill).
	BinConflictProb float64
	// BatchWidth is the predicted mean messages per coalesced wire frame
	// (0 when coalescing is off).
	BatchWidth float64
	// BlocksPerMsg and ProbesPerMsg are the priced per-message work items.
	BlocksPerMsg float64
	ProbesPerMsg float64

	// FootprintBytes is the modeled per-rank memory footprint.
	FootprintBytes int
	// Reject is non-empty when the candidate is infeasible: "over-budget"
	// (footprint above Config.BudgetBytes) or "posted-overflow" (the
	// trace's peak posted depth exceeds Config.MaxReceives).
	Reject string
}

// Speedup returns the candidate's modeled rate relative to base (1.0 =
// equal). Zero when either rate is invalid.
func (e Estimate) Speedup(base Estimate) float64 {
	if !e.Offload.Valid() || !base.Offload.Valid() {
		return 0
	}
	return e.Offload.MsgPerSec / base.Offload.MsgPerSec
}

// Planner prices candidates against one trace. Replay reports are cached
// per bin count, so a whole recommendation run replays the trace only a
// handful of times regardless of how many candidates it prices.
type Planner struct {
	cfg     Config
	sched   *analyzer.Schedule
	feats   Features
	reports map[int]*analyzer.Report
}

// Planner phase codes carried by obs.EvPlanPhase (A payload word).
const (
	PhaseFeatures uint64 = iota
	PhaseReplay
	PhaseGrid
	PhaseRefine
	PhaseRank
)

// New builds a planner over tr: one replay schedule (shared by every bin
// count) plus the candidate-independent trace features. Replays run at
// the analyzer's default posted-receive bound (not the planned capacity):
// feasibility against Config.MaxReceives is judged from the replay's
// measured PostedMax instead of by aborting the replay.
func New(tr *trace.Trace, cfg Config) *Planner {
	cfg.fill()
	start := cfg.Obs.Now()
	acfg := analyzer.Config{
		Workers: cfg.Workers,
		Obs:     cfg.Obs,
	}
	p := &Planner{
		cfg:     cfg,
		sched:   analyzer.BuildSchedule(tr, acfg),
		feats:   extractFeatures(tr),
		reports: make(map[int]*analyzer.Report),
	}
	if cfg.Obs.Enabled() {
		cfg.Obs.Event(obs.EvPlanPhase, 0, PhaseFeatures, uint64(cfg.Obs.Now()-start), 0)
	}
	return p
}

// Features returns the trace-derived quantities the planner prices with.
func (p *Planner) Features() Features { return p.feats }

// Prefetch replays every uncached bin count in bins over the one shared
// worker pool. Estimate calls it implicitly for single counts; Recommend
// batches a whole grid's worth into one fan-out.
func (p *Planner) Prefetch(bins []int) error {
	missing := make([]int, 0, len(bins))
	seen := make(map[int]bool, len(bins))
	for _, b := range bins {
		if _, ok := p.reports[b]; !ok && !seen[b] {
			seen[b] = true
			missing = append(missing, b)
		}
	}
	if len(missing) == 0 {
		return nil
	}
	start := p.cfg.Obs.Now()
	cfgs := make([]analyzer.Config, len(missing))
	for i, b := range missing {
		cfgs[i] = analyzer.Config{Bins: b}
	}
	pool := analyzer.Config{Workers: p.cfg.Workers, Obs: p.cfg.Obs}
	reps, err := p.sched.SweepConfigs(cfgs, pool)
	if err != nil {
		return err
	}
	for i, b := range missing {
		p.reports[b] = reps[i]
	}
	p.cfg.Obs.CounterAdd(obs.CtrPlanReplays, uint64(len(missing)))
	if p.cfg.Obs.Enabled() {
		p.cfg.Obs.Event(obs.EvPlanPhase, 0, PhaseReplay,
			uint64(p.cfg.Obs.Now()-start), uint64(len(missing)))
	}
	return nil
}

func (p *Planner) report(bins int) (*analyzer.Report, error) {
	if rep, ok := p.reports[bins]; ok {
		return rep, nil
	}
	if err := p.Prefetch([]int{bins}); err != nil {
		return nil, err
	}
	return p.reports[bins], nil
}

// batchWidth predicts the mean coalesced frame width for a candidate:
// frames can grow no wider than the arrival burst, the message-count
// threshold, or the byte threshold divided by the mean payload.
func (p *Planner) batchWidth(c Candidate) float64 {
	if c.CoalesceBytes <= 0 && c.CoalesceMsgs <= 0 {
		return 0
	}
	w := p.feats.MeanBurst
	if c.CoalesceMsgs > 0 && float64(c.CoalesceMsgs) < w {
		w = float64(c.CoalesceMsgs)
	}
	if c.CoalesceBytes > 0 && p.feats.AvgPayloadBytes > 0 {
		if byBytes := float64(c.CoalesceBytes) / p.feats.AvgPayloadBytes; byBytes < w {
			w = byBytes
		}
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Estimate prices one candidate: an analyzer replay at its bin count
// (cached) plus the analytic block, wire, and footprint stages.
func (p *Planner) Estimate(c Candidate) (Estimate, error) {
	if err := c.Validate(); err != nil {
		return Estimate{}, err
	}
	rep, err := p.report(c.Bins)
	if err != nil {
		return Estimate{}, err
	}
	p.cfg.Obs.CounterInc(obs.CtrPlanCandidates)

	est := Estimate{
		Candidate: c,
		QueueMean: rep.Depth.AvgArriveDepth(),
		QueueMax:  rep.Depth.ArriveMaxDepth,
		PostedMax: rep.PostedMax,
	}

	msgs := rep.Depth.Delivered()
	// Block formation packs each arrival burst into full blocks plus one
	// remainder: blocks per message is exactly ceil(burst/BlockSize)/burst.
	burst := p.feats.MeanBurst
	if burst < 1 {
		burst = 1
	}
	blocksPerBurst := math.Ceil(burst / float64(c.BlockSize))
	est.BlocksPerMsg = blocksPerBurst / burst
	fill := burst / blocksPerBurst
	if msgs > 0 {
		est.ProbesPerMsg = float64(rep.Depth.ArriveTraversed) / float64(msgs)
	}
	est.BatchWidth = p.batchWidth(c)

	// Pairwise collision inside a block: same key (1/UniqueKeys) or,
	// failing that, same bin; compounded over the block's other fill-1
	// occupants.
	pk := 0.0
	if rep.UniqueKeys > 0 {
		pk = 1 / float64(rep.UniqueKeys)
	}
	pPair := pk + (1-pk)/float64(c.Bins)
	est.BinConflictProb = 1 - math.Pow(1-pPair, fill-1)

	// The modelled device cannot overlap more blocks than it has threads to run:
	// clamp the priced in-flight window to Threads/BlockSize.
	effInFlight := c.InFlight
	if byThreads := c.Threads / c.BlockSize; byThreads >= 1 && byThreads < effInFlight {
		effInFlight = byThreads
	}

	cm := p.cfg.Cost
	cm.Threads = c.Threads
	cm.InFlight = effInFlight
	cm.BatchWidth = est.BatchWidth

	blocks := uint64(math.Round(float64(msgs) * est.BlocksPerMsg))
	if msgs > 0 && blocks == 0 {
		blocks = 1
	}
	st := core.EngineStats{Messages: msgs, Blocks: blocks}
	est.Offload = cm.ModelOffload(c.String(), st, rep.Depth)
	est.Stages, _ = cm.OffloadStages(st, rep.Depth)
	est.Host = cm.ModelHost("host "+c.String(), rep.Depth)

	peers := int(math.Ceil(p.feats.MeanPeers))
	est.FootprintBytes = bench.ModelFootprintBytes(bench.FootprintConfig{
		Bins:          c.Bins,
		MaxReceives:   p.cfg.MaxReceives,
		BlockSize:     c.BlockSize,
		InFlight:      c.InFlight,
		CoalesceBytes: c.CoalesceBytes,
		Peers:         peers,
	})

	switch {
	case rep.PostedMax > p.cfg.MaxReceives:
		est.Reject = "posted-overflow"
	case p.cfg.BudgetBytes > 0 && int64(est.FootprintBytes) > p.cfg.BudgetBytes:
		est.Reject = "over-budget"
	}
	if est.Reject != "" {
		p.cfg.Obs.CounterInc(obs.CtrPlanRejected)
	}
	return est, nil
}

// extractFeatures walks the trace once per destination rank: inbound
// sends (shifted by the analyzer's base delivery latency) merge with the
// destination's progress calls, and maximal runs of consecutive arrivals
// form the burst statistic. Payload and peer statistics come from the
// send side.
func extractFeatures(tr *trace.Trace) Features {
	f := Features{App: tr.App, Procs: tr.NumRanks()}
	const latency = 1e-4 // analyzer.Config default

	type tick struct {
		time    float64
		seq     int
		arrival bool
	}
	byDest := make(map[int32][]tick, tr.NumRanks())
	peers := make(map[int32]map[int32]struct{})
	var payloadSum float64

	seq := 0
	for ri := range tr.Ranks {
		rank := tr.Ranks[ri].Rank
		for _, e := range tr.Ranks[ri].Events {
			switch e.Kind {
			case trace.OpSend:
				byDest[e.Peer] = append(byDest[e.Peer],
					tick{time: e.Walltime + latency, seq: seq, arrival: true})
				if peers[rank] == nil {
					peers[rank] = make(map[int32]struct{})
				}
				peers[rank][e.Peer] = struct{}{}
				f.Sends++
				payloadSum += float64(e.Count)
			case trace.OpProgress:
				byDest[rank] = append(byDest[rank], tick{time: e.Walltime, seq: seq})
			}
			seq++
		}
	}
	if f.Sends > 0 {
		f.AvgPayloadBytes = payloadSum / float64(f.Sends)
	}

	var runSum, runCount int
	// Deterministic destination order.
	dests := make([]int32, 0, len(byDest))
	for d := range byDest {
		dests = append(dests, d)
	}
	sort.Slice(dests, func(i, j int) bool { return dests[i] < dests[j] })
	for _, d := range dests {
		ticks := byDest[d]
		sort.Slice(ticks, func(i, j int) bool {
			if ticks[i].time != ticks[j].time {
				return ticks[i].time < ticks[j].time
			}
			return ticks[i].seq < ticks[j].seq
		})
		run := 0
		flush := func() {
			if run > 0 {
				runSum += run
				runCount++
				if run > f.MaxBurst {
					f.MaxBurst = run
				}
				run = 0
			}
		}
		for _, t := range ticks {
			if t.arrival {
				run++
			} else {
				flush()
			}
		}
		flush()
	}
	if runCount > 0 {
		f.MeanBurst = float64(runSum) / float64(runCount)
	}

	var peerSum int
	for _, set := range peers {
		peerSum += len(set)
		if len(set) > f.MaxPeers {
			f.MaxPeers = len(set)
		}
	}
	if len(peers) > 0 {
		f.MeanPeers = float64(peerSum) / float64(len(peers))
	}
	return f
}

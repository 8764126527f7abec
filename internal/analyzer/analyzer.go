// Package analyzer is the paper's contribution C2: the trace processing
// stage that replays an MPI application trace through the optimistic
// matching data structures and gathers matching-behaviour statistics
// (§V-A). Each rank owns one set of matching structures; sends become
// arrivals at their destination rank after a small latency; receives are
// posted against the unexpected store first, exactly as the engine does;
// progress operations sample structure state. Collective and one-sided
// operations only contribute to the call-mix statistics (Figure 6).
package analyzer

import (
	"fmt"
	"sort"

	"repro/internal/match"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Engine selects which matching strategy the analyzer emulates — the
// optimistic engine by default, or one of the Table I baselines for
// cross-strategy comparison on identical traces.
type Engine string

// Analyzer engines.
const (
	// EngineOptimistic replays through the paper's optimistic structures
	// (the default; bin count from Config.Bins).
	EngineOptimistic Engine = "optimistic"
	// EngineList is the traditional two-queue linked-list algorithm.
	EngineList Engine = "list"
	// EngineBin is the Flajslik-style binned baseline.
	EngineBin Engine = "bin"
	// EngineRank is the Dózsa-style per-source-rank baseline.
	EngineRank Engine = "rank"
	// EngineAdaptive is the Bayatpour-style dynamic baseline.
	EngineAdaptive Engine = "adaptive"
)

// Config parameterizes one analysis pass.
type Config struct {
	// Engine selects the matching strategy (default EngineOptimistic).
	Engine Engine
	// Bins per hash table; 1 emulates traditional list matching (the
	// Figure 7 baseline), the paper sweeps 1…256 in powers of two.
	Bins int
	// MaxReceives bounds outstanding posted receives per rank
	// (default 4096). Exceeding it aborts the analysis with an error, the
	// software-fallback condition of §III-B.
	MaxReceives int
	// Workers bounds the replay worker pool (default GOMAXPROCS). Every
	// width produces byte-identical reports; 1 still uses the sharded path
	// on a single goroutine — AnalyzeSerial is the unsharded reference.
	Workers int
	// Obs, when non-nil, receives the analyzer's counters (shards run,
	// events replayed) and — when the sink is tracing — per-shard and
	// per-phase events for Chrome trace export. A nil sink costs nothing.
	Obs *obs.Sink
}

func (c *Config) fill() {
	if c.MaxReceives == 0 {
		c.MaxReceives = 4096
	}
}

// Send→arrival delay in trace-time seconds. The base latency is long enough
// that a pre-posted receive beats the matching send and short enough to
// stay within the iteration's window. Real fabrics deliver concurrent
// messages from different senders in effectively arbitrary order, so the
// delay varies per (sender, receiver) pair by up to latencySpread; it is a
// pure function of the pair, so messages between one pair keep their send
// order (per-QP FIFO, constraint C2).
const (
	latency       = 1e-4
	latencySpread = 0.02
)

// arrivalDelay returns the delivery latency from sender to receiver.
func arrivalDelay(sender, receiver int32) float64 {
	h := uint32(sender)*2654435761 ^ uint32(receiver)*40503
	h ^= h >> 13
	h *= 0x9e3779b1
	h ^= h >> 16
	return latency + latencySpread*(float64(h%4096)/4096)
}

// Report is the outcome of analyzing one application at one bin count.
type Report struct {
	App   string
	Procs int
	Bins  int

	// Mix is the Figure 6 call distribution.
	Mix trace.CallMix

	// Depth aggregates search-depth statistics over every rank — the
	// Figure 7 "queue depth": the number of queue elements examined per
	// matching attempt.
	Depth match.Stats

	// PostedAvg and PostedMax describe the live posted-receive queue
	// length sampled at progress operations.
	PostedAvg float64
	PostedMax int

	// EmptyBinPct is the mean percentage of empty bins sampled at progress
	// operations (§V-A).
	EmptyBinPct float64

	// TagsUsed is the number of distinct tags posted; UniqueKeys the
	// number of distinct (source, tag, comm) receive keys; WildcardRecvs
	// the number of receives using any wildcard.
	TagsUsed      int
	UniqueKeys    int
	WildcardRecvs int

	// Matched / Unexpected are totals across ranks.
	Matched    uint64
	Unexpected uint64
}

// AvgDepth returns the Figure 7 scalar: the mean number of posted-receive
// entries examined per arriving message. Post-side (unexpected store)
// searches are reported separately in Depth — in pre-posting applications
// they are near zero and would only dilute the queue-depth signal.
func (r *Report) AvgDepth() float64 { return r.Depth.AvgArriveDepth() }

// MaxDepth returns the deepest single posted-receive search.
func (r *Report) MaxDepth() uint64 { return r.Depth.ArriveMaxDepth }

// step is one schedulable action derived from a trace event.
type step struct {
	time float64
	seq  int // stable tie-break: global emission order
	rank int32
	kind trace.OpKind
	peer int32
	tag  int32
	comm int32
}

// Analyze replays t through per-rank matching structures, sharded by
// destination rank over a bounded worker pool (see schedule): a sweep over
// cfg.Bins alone. The report is byte-identical to AnalyzeSerial's.
func Analyze(t *trace.Trace, cfg Config) (*Report, error) {
	reps, err := Sweep(t, []int{cfg.Bins}, cfg)
	if err != nil {
		return nil, err
	}
	return reps[0], nil
}

// AnalyzeSerial is the unsharded reference implementation: one global
// (time, seq)-sorted step list replayed on the calling goroutine. It
// defines the semantics the sharded path must reproduce exactly and backs
// the equivalence tests; production callers want Analyze.
func AnalyzeSerial(t *trace.Trace, cfg Config) (*Report, error) {
	cfg.fill()
	if err := validateBins(cfg.Bins); err != nil {
		return nil, err
	}

	rep := &Report{App: t.App, Procs: t.NumRanks(), Bins: cfg.Bins, Mix: t.Mix()}

	// Build the global schedule.
	steps := make([]step, 0, t.NumEvents())
	seq := 0
	for ri := range t.Ranks {
		rank := t.Ranks[ri].Rank
		for _, e := range t.Ranks[ri].Events {
			switch e.Kind {
			case trace.OpRecv:
				steps = append(steps, step{time: e.Walltime, seq: seq, rank: rank,
					kind: trace.OpRecv, peer: e.Peer, tag: e.Tag, comm: e.Comm})
			case trace.OpSend:
				// The send becomes an arrival at the destination after the
				// pair's delivery latency.
				steps = append(steps, step{time: e.Walltime + arrivalDelay(rank, e.Peer), seq: seq,
					rank: e.Peer, kind: trace.OpSend, peer: rank, tag: e.Tag, comm: e.Comm})
			case trace.OpProgress:
				steps = append(steps, step{time: e.Walltime, seq: seq, rank: rank,
					kind: trace.OpProgress})
			}
			seq++
		}
	}
	sort.Slice(steps, func(i, j int) bool {
		if steps[i].time != steps[j].time {
			return steps[i].time < steps[j].time
		}
		return steps[i].seq < steps[j].seq
	})

	// One matching-engine instance per rank, indexed by rank id.
	matchers := make(map[int32]instance, t.NumRanks())
	for ri := range t.Ranks {
		id := t.Ranks[ri].Rank
		if _, dup := matchers[id]; dup {
			return nil, errRepeatedRank(id)
		}
		m, err := newInstance(cfg)
		if err != nil {
			return nil, err
		}
		matchers[id] = m
	}

	tags := make(map[int32]struct{})
	keys := make(map[[3]int32]struct{})
	var postedSamples, emptySamples int
	var postedSum float64
	var emptySum float64

	for _, s := range steps {
		m := matchers[s.rank]
		if m == nil {
			continue // send to a rank outside the trace
		}
		switch s.kind {
		case trace.OpRecv:
			r := &match.Recv{Source: match.Rank(s.peer), Tag: match.Tag(s.tag), Comm: match.CommID(s.comm)}
			if r.Class() != match.ClassNone {
				rep.WildcardRecvs++
			}
			if s.tag != trace.AnyTag {
				tags[s.tag] = struct{}{}
			}
			keys[[3]int32{s.peer, s.tag, s.comm}] = struct{}{}
			if err := m.post(r); err != nil {
				return nil, fmt.Errorf("analyzer: rank %d: %w (raise MaxReceives)", s.rank, err)
			}
		case trace.OpSend:
			env := &match.Envelope{Source: match.Rank(s.peer), Tag: match.Tag(s.tag), Comm: match.CommID(s.comm)}
			m.arrive(env)
		case trace.OpProgress:
			d := m.posted()
			postedSum += float64(d)
			if d > rep.PostedMax {
				rep.PostedMax = d
			}
			postedSamples++
			empty, total, ok := m.occupancy()
			if ok && total > 0 {
				emptySum += 100 * float64(empty) / float64(total)
				emptySamples++
			}
		}
	}

	for _, m := range matchers {
		rep.Depth = rep.Depth.Add(m.depth())
		rep.Unexpected += m.unexpectedTotal()
	}
	rep.Matched = rep.Depth.Matched
	if postedSamples > 0 {
		rep.PostedAvg = postedSum / float64(postedSamples)
	}
	if emptySamples > 0 {
		rep.EmptyBinPct = emptySum / float64(emptySamples)
	}
	rep.TagsUsed = len(tags)
	rep.UniqueKeys = len(keys)
	return rep, nil
}

// Sweep analyzes t at each bin count and returns reports in order. The
// replay schedule is built once and every (bin count × shard) replay fans
// out over one shared worker pool; re-analyzing per bin count from scratch
// re-derives and re-sorts the identical step list.
func Sweep(t *trace.Trace, bins []int, cfg Config) ([]*Report, error) {
	return buildSchedule(t, cfg).sweep(bins, cfg)
}

package analyzer

import (
	"cmp"
	"slices"

	"repro/internal/obs"
	"repro/internal/trace"
)

// Schedule is the replay plan derived from one trace: per-destination-rank
// step streams plus the trace-level statistics every Report carries. Every
// scheduled step touches only the matching structures of its destination
// rank, so the streams are independent — the replay is embarrassingly
// parallel by destination rank. A Schedule is immutable once built and can
// be replayed many times (Sweep reuses one Schedule across the whole
// 1…256 bin sweep instead of re-deriving and re-sorting the step list per
// bin count).
//
// Step placement depends on Config.Latency and Config.LatencySpread (they
// decide when a send arrives at its destination), so those fields are
// frozen at build time; Bins, Engine, MaxReceives and RecordSeries remain
// free per replay.
type Schedule struct {
	app   string
	procs int
	mix   trace.CallMix

	shards []shard
}

// shard is the time-ordered step stream of one destination rank.
type shard struct {
	rank  int32
	steps []step
}

// BuildSchedule partitions t's events into per-destination-rank step
// streams. Receives and progress operations stay on their own rank; a send
// becomes an arrival at its destination after the pair's delivery latency,
// exactly as in the serial path. Sends addressed to ranks outside the
// trace are dropped (the serial path skips them at replay time). Each
// shard is sorted by (time, seq) — the same comparator the serial path
// applies to the global list, so a shard's order equals the global order
// restricted to that rank.
func BuildSchedule(t *trace.Trace, cfg Config) *Schedule {
	cfg.fill()
	start := cfg.Obs.Now()
	sc := &Schedule{app: t.App, procs: t.NumRanks(), mix: t.Mix()}

	sc.shards = make([]shard, len(t.Ranks))
	idx := make(map[int32]int, len(t.Ranks))
	for ri := range t.Ranks {
		sc.shards[ri].rank = t.Ranks[ri].Rank
		idx[t.Ranks[ri].Rank] = ri
	}

	// Size every shard's stream before filling it: one exact allocation per
	// shard instead of a doubling series.
	counts := make([]int, len(t.Ranks))
	for ri := range t.Ranks {
		for _, e := range t.Ranks[ri].Events {
			switch e.Kind {
			case trace.OpRecv, trace.OpProgress:
				counts[ri]++
			case trace.OpSend:
				if di, ok := idx[e.Peer]; ok {
					counts[di]++
				}
			}
		}
	}
	for ri, n := range counts {
		sc.shards[ri].steps = make([]step, 0, n)
	}

	// seq numbers every trace event in emission order (including kinds
	// that schedule nothing) so ties resolve identically to the serial
	// path's global sort.
	seq := 0
	for ri := range t.Ranks {
		rank := t.Ranks[ri].Rank
		for _, e := range t.Ranks[ri].Events {
			switch e.Kind {
			case trace.OpRecv:
				sc.shards[ri].steps = append(sc.shards[ri].steps, step{
					time: e.Walltime, seq: seq, rank: rank,
					kind: trace.OpRecv, peer: e.Peer, tag: e.Tag, comm: e.Comm})
			case trace.OpSend:
				if di, ok := idx[e.Peer]; ok {
					delay := cfg.Latency + cfg.LatencySpread*pairSpread(rank, e.Peer)
					sc.shards[di].steps = append(sc.shards[di].steps, step{
						time: e.Walltime + delay, seq: seq, rank: e.Peer,
						kind: trace.OpSend, peer: rank, tag: e.Tag, comm: e.Comm})
				}
			case trace.OpProgress:
				sc.shards[ri].steps = append(sc.shards[ri].steps, step{
					time: e.Walltime, seq: seq, rank: rank, kind: trace.OpProgress})
			}
			seq++
		}
	}

	// Sort shards on the replay's worker pool: many small O(s log s) sorts
	// replace the serial path's one global O(E log E) sort.
	runPool(len(sc.shards), cfg.workerCount(len(sc.shards)), func(i int) {
		slices.SortFunc(sc.shards[i].steps, func(a, b step) int {
			return cmpTimeSeq(a.time, a.seq, b.time, b.seq)
		})
	})
	if cfg.Obs.Enabled() {
		cfg.Obs.Event(obs.EvAnalyzerPhase, 0, phaseSchedule, uint64(cfg.Obs.Now()-start), 0)
	}
	return sc
}

// cmpTimeSeq is the replay order: time, ties broken by emission sequence.
func cmpTimeSeq(at float64, as int, bt float64, bs int) int {
	switch {
	case at < bt:
		return -1
	case at > bt:
		return 1
	}
	return cmp.Compare(as, bs)
}

// NumShards returns the number of per-rank replay shards.
func (sc *Schedule) NumShards() int { return len(sc.shards) }

// NumSteps returns the total scheduled step count across shards.
func (sc *Schedule) NumSteps() int {
	n := 0
	for i := range sc.shards {
		n += len(sc.shards[i].steps)
	}
	return n
}

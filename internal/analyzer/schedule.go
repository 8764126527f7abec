package analyzer

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/trace"
)

// schedule is the replay plan derived from one trace: per-destination-rank
// step streams plus the trace-level statistics every Report carries. Every
// scheduled step touches only the matching structures of its destination
// rank, so the streams are independent — the replay is embarrassingly
// parallel by destination rank. A schedule is immutable once built and can
// be replayed many times (Sweep reuses one schedule across the whole
// 1…256 bin sweep instead of re-deriving and re-sorting the step list per
// bin count). Bins, Engine and MaxReceives are free per replay.
type schedule struct {
	app   string
	procs int
	mix   trace.CallMix

	// Properties of the trace's receives, the same at every bin count and
	// engine, so computed here once and not per replay (Report fields of the
	// same names).
	tagsUsed      int
	uniqueKeys    int
	wildcardRecvs int

	shards []shard

	// byRank finds a rank id's shard when the ids are not 0..n-1 in trace
	// order; when they are (every generated, fully loaded or cached trace),
	// it is nil and the id is the shard's index.
	byRank map[int32]int

	// sampleShard lists, in the global (time, seq) order of the trace's
	// progress calls, the shard each call belongs to. A replay produces
	// each shard's samples in that shard's order, so merge interleaves
	// them by this list rather than by comparing them: the order is the
	// same at every configuration, and a sweep fixes it once.
	sampleShard []int32

	// err reports a trace that cannot be scheduled; sweep returns it
	// before replaying anything.
	err error
}

// shard is the time-ordered step stream of one destination rank, with the
// number of steps of each kind so a replay can size its buffers exactly.
type shard struct {
	rank  int32
	steps []step

	recvs, sends, progress int
}

// errRepeatedRank reports a trace that lists a rank id twice: its steps
// have no single set of matching structures to run on.
func errRepeatedRank(rank int32) error {
	return fmt.Errorf("analyzer: rank %d appears more than once in the trace", rank)
}

// shardOf returns the shard that receives a send to rank id peer, and false
// when no rank of the trace has that id.
func (sc *schedule) shardOf(peer int32) (int, bool) {
	if sc.byRank == nil {
		return int(peer), uint32(peer) < uint32(len(sc.shards))
	}
	i, ok := sc.byRank[peer]
	return i, ok
}

// buildSchedule partitions t's events into per-destination-rank step
// streams. Receives and progress operations stay on their own rank; a send
// becomes an arrival at its destination after the pair's delivery latency,
// exactly as in the serial path. Sends addressed to ranks outside the
// trace are dropped (the serial path skips them at replay time). Each
// shard is sorted by (time, seq) — the same order the serial path applies
// to the global list, so a shard's order equals the global order
// restricted to that rank. A trace that repeats a rank id yields a
// schedule whose err says so.
func buildSchedule(t *trace.Trace, cfg Config) *schedule {
	start := cfg.Obs.Now()
	sc := &schedule{app: t.App, procs: t.NumRanks()}

	sc.shards = make([]shard, len(t.Ranks))
	dense := true
	for ri := range t.Ranks {
		sc.shards[ri].rank = t.Ranks[ri].Rank
		dense = dense && t.Ranks[ri].Rank == int32(ri)
	}
	if !dense {
		sc.byRank = make(map[int32]int, len(t.Ranks))
		for ri := range t.Ranks {
			id := t.Ranks[ri].Rank
			if _, dup := sc.byRank[id]; dup {
				return &schedule{err: errRepeatedRank(id)}
			}
			sc.byRank[id] = ri
		}
	}

	// Count before filling: every shard's stream is one exact allocation
	// instead of a doubling series, and the same pass yields the call mix
	// and the schedule's receive statistics. A receive's tag is part of its
	// key, so the distinct tags are read off the distinct keys afterwards:
	// one set insert per receive, not two.
	keys := make(map[[3]int32]struct{})
	nProgress := 0
	for ri := range t.Ranks {
		sh := &sc.shards[ri]
		for _, e := range t.Ranks[ri].Events {
			sc.mix.Add(e.Kind)
			switch e.Kind {
			case trace.OpRecv:
				sh.recvs++
				if e.Peer == trace.AnySource || e.Tag == trace.AnyTag {
					sc.wildcardRecvs++
				}
				keys[[3]int32{e.Peer, e.Tag, e.Comm}] = struct{}{}
			case trace.OpProgress:
				sh.progress++
			case trace.OpSend:
				if di, ok := sc.shardOf(e.Peer); ok {
					sc.shards[di].sends++
				}
			}
		}
		nProgress += sh.progress
	}
	tags := make(map[int32]struct{})
	for k := range keys {
		if k[1] != trace.AnyTag {
			tags[k[1]] = struct{}{}
		}
	}
	sc.tagsUsed, sc.uniqueKeys = len(tags), len(keys)
	for i := range sc.shards {
		sh := &sc.shards[i]
		sh.steps = make([]step, 0, sh.recvs+sh.sends+sh.progress)
	}

	// seq numbers every trace event in emission order (including kinds
	// that schedule nothing) so ties resolve identically to the serial
	// path's global sort. Progress steps are also gathered in one list,
	// whose sorted order is the merge's.
	progress := make([]step, 0, nProgress)
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
				if di, ok := sc.shardOf(e.Peer); ok {
					sc.shards[di].steps = append(sc.shards[di].steps, step{
						time: e.Walltime + arrivalDelay(rank, e.Peer), seq: seq, rank: e.Peer,
						kind: trace.OpSend, peer: rank, tag: e.Tag, comm: e.Comm})
				}
			case trace.OpProgress:
				s := step{time: e.Walltime, seq: seq, rank: rank, kind: trace.OpProgress}
				sc.shards[ri].steps = append(sc.shards[ri].steps, s)
				progress = append(progress, s)
			}
			seq++
		}
	}

	// Sort shards on the replay's worker pool: many small sorts replace the
	// serial path's one global O(E log E) sort, and each is a merge of the
	// few ascending runs the fill above left (sortRuns), not a sort from
	// scratch. The progress list, one run per rank, is sorted last.
	workers := cfg.workerCount(len(sc.shards))
	scratch := make([]runScratch, workers)
	runPool(len(sc.shards), workers, func(w, i int) {
		sortRuns(sc.shards[i].steps, &scratch[w])
	})
	sortRuns(progress, &scratch[0])
	sc.sampleShard = make([]int32, len(progress))
	for k := range progress {
		i, _ := sc.shardOf(progress[k].rank)
		sc.sampleShard[k] = int32(i)
	}
	if cfg.Obs.Enabled() {
		cfg.Obs.Event(obs.EvAnalyzerPhase, 0, phaseSchedule, uint64(cfg.Obs.Now()-start), 0)
	}
	return sc
}

// runScratch is one sorting worker's reusable memory.
type runScratch struct {
	buf    []step
	bounds []int
}

// before is the replay order: time, ties broken by emission sequence.
func before(a, b *step) bool {
	return a.time < b.time || a.time == b.time && a.seq < b.seq
}

// sortRuns sorts xs into replay order by merging the maximal ascending
// runs it already consists of. A shard is filled rank by rank — each
// sender's arrivals in send order, the rank's own events in trace order —
// so it is a concatenation of about as many ascending runs as the rank has
// peers; the progress list is one run per rank. Merging r runs costs
// O(n log r) comparisons with none spent rediscovering order inside a run.
// Any input sorts correctly: a descending stream is n runs of one, and
// this is then a bottom-up merge sort. (time, seq) is a total order, seq
// being unique, so stability is moot.
func sortRuns(xs []step, sc *runScratch) {
	// bounds[k] is where run k starts; a final entry closes the last run.
	bounds := append(sc.bounds[:0], 0)
	for i := 1; i < len(xs); i++ {
		if before(&xs[i], &xs[i-1]) {
			bounds = append(bounds, i)
		}
	}
	bounds = append(bounds, len(xs))
	sc.bounds = bounds
	if len(bounds) <= 2 {
		return // zero or one run: already sorted
	}
	if cap(sc.buf) < len(xs) {
		sc.buf = make([]step, len(xs))
	}

	// Each pass merges neighbouring runs pairwise from src into dst and
	// halves the run count; src and dst swap roles between passes.
	src, dst := xs, sc.buf[:len(xs)]
	for len(bounds) > 2 {
		k := 0 // runs written this pass
		for r := 0; r+1 < len(bounds); r += 2 {
			lo, mid := bounds[r], bounds[r+1]
			hi := mid
			if r+2 < len(bounds) {
				hi = bounds[r+2]
			}
			i, j, o := lo, mid, lo
			for i < mid && j < hi {
				if before(&src[j], &src[i]) {
					dst[o] = src[j]
					j++
				} else {
					dst[o] = src[i]
					i++
				}
				o++
			}
			o += copy(dst[o:], src[i:mid])
			copy(dst[o:], src[j:hi])
			bounds[k] = lo
			k++
		}
		bounds[k] = len(xs)
		bounds = bounds[:k+1]
		src, dst = dst, src
	}
	if &src[0] != &xs[0] {
		copy(xs, src)
	}
}

package analyzer

import (
	"cmp"

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

	// Properties of the trace's receives, the same at every bin count and
	// engine, so computed here once and not per replay (Report fields of the
	// same names).
	tagsUsed      int
	uniqueKeys    int
	wildcardRecvs int

	shards []shard
}

// shard is the time-ordered step stream of one destination rank, with the
// number of steps of each kind so a replay can size its buffers exactly.
type shard struct {
	rank  int32
	steps []step

	recvs, sends, progress int
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

	// Count before filling: every shard's stream is one exact allocation
	// instead of a doubling series, and the same pass over the receives
	// yields the schedule's receive statistics.
	tags := make(map[int32]struct{})
	keys := make(map[[3]int32]struct{})
	for ri := range t.Ranks {
		for _, e := range t.Ranks[ri].Events {
			switch e.Kind {
			case trace.OpRecv:
				sc.shards[ri].recvs++
				if e.Peer == trace.AnySource || e.Tag == trace.AnyTag {
					sc.wildcardRecvs++
				}
				if e.Tag != trace.AnyTag {
					tags[e.Tag] = struct{}{}
				}
				keys[[3]int32{e.Peer, e.Tag, e.Comm}] = struct{}{}
			case trace.OpProgress:
				sc.shards[ri].progress++
			case trace.OpSend:
				if di, ok := idx[e.Peer]; ok {
					sc.shards[di].sends++
				}
			}
		}
	}
	sc.tagsUsed, sc.uniqueKeys = len(tags), len(keys)
	for i := range sc.shards {
		sh := &sc.shards[i]
		sh.steps = make([]step, 0, sh.recvs+sh.sends+sh.progress)
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

	// Sort shards on the replay's worker pool: many small sorts replace the
	// serial path's one global O(E log E) sort, and each is a merge of the
	// few ascending runs the fill above left (sortRuns), not a sort from
	// scratch.
	workers := cfg.workerCount(len(sc.shards))
	scratch := make([]runScratch[step], workers)
	runPool(len(sc.shards), workers, func(w, i int) {
		sortRuns(sc.shards[i].steps, &scratch[w], stepLess)
	})
	if cfg.Obs.Enabled() {
		cfg.Obs.Event(obs.EvAnalyzerPhase, 0, phaseSchedule, uint64(cfg.Obs.Now()-start), 0)
	}
	return sc
}

// runScratch is one sorting worker's reusable memory.
type runScratch[T any] struct {
	buf    []T
	bounds []int
}

// stepLess and sampleLess are the replay order of steps and of the
// progress samples they produce.
func stepLess(a, b *step) bool { return cmpTimeSeq(a.time, a.seq, b.time, b.seq) < 0 }

func sampleLess(a, b *progressSample) bool { return cmpTimeSeq(a.time, a.seq, b.time, b.seq) < 0 }

// sortRuns sorts xs by less by merging the maximal ascending runs it
// already consists of. A shard is filled rank by rank — each sender's
// arrivals in send order, the rank's own events in trace order — so it is a
// concatenation of about as many ascending runs as the rank has peers; the
// progress samples Analyze merges are one run per shard. Merging r runs
// costs O(n log r) comparisons with none spent rediscovering order inside a
// run. Any input sorts correctly: a descending stream is n runs of one, and
// this is then a bottom-up merge sort. (time, seq) is a total order, seq
// being unique, so stability is moot.
func sortRuns[T any](xs []T, sc *runScratch[T], less func(a, b *T) bool) {
	// bounds[k] is where run k starts; a final entry closes the last run.
	bounds := append(sc.bounds[:0], 0)
	for i := 1; i < len(xs); i++ {
		if less(&xs[i], &xs[i-1]) {
			bounds = append(bounds, i)
		}
	}
	bounds = append(bounds, len(xs))
	sc.bounds = bounds
	if len(bounds) <= 2 {
		return // zero or one run: already sorted
	}
	if cap(sc.buf) < len(xs) {
		sc.buf = make([]T, len(xs))
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
				if less(&src[j], &src[i]) {
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

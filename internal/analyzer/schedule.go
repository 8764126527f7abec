package analyzer

import (
	"fmt"
	"math"
	"sync"

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
//
// A schedule also owns every buffer its build and its sweep use. Sweep
// hands it to schedules when it returns, and the next buildSchedule, of any
// trace, refills that memory rather than allocating its own: a sweep
// replays into memory an earlier one already grew. Nothing a Report holds
// points into it.
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

	mem scheduleMemory
}

// scheduleMemory is what a schedule keeps from one build and sweep to the
// next besides its shards and sampleShard arrays.
type scheduleMemory struct {
	// The build's: steps backs every shard's stream, shard after shard; the
	// key sets are emptied, not remade.
	steps    []step
	progress []step
	keys     keySet        // (peer, tag, comm) of every receive
	tags     keySet        // (tag, 0, 0) of every distinct key's specific tag
	ranks    map[int32]int // byRank, when it is not nil
	sorting  []runScratch  // one per sorting worker

	// The sweep's: one result per (bin count, shard), the progress samples
	// of every replay at fixed offsets, one slab per replay worker, and
	// merge's cursors.
	results []shardResult
	samples []progressSample
	slabs   []replaySlab
	next    []int
}

// schedules holds the schedules whose Sweep has returned, memory and all.
var schedules sync.Pool

// shard is the time-ordered step stream of one destination rank, with the
// number of steps of each kind so a replay can size its buffers exactly.
type shard struct {
	rank  int32
	steps []step

	recvs, sends, progress int

	// sampleOff is where the shard's progress samples start among one
	// replay's: the progress calls of the shards before it.
	sampleOff int
}

// errRepeatedRank reports a trace that lists a rank id twice: its steps
// have no single set of matching structures to run on.
func errRepeatedRank(rank int32) error {
	return fmt.Errorf("analyzer: rank %d appears more than once in the trace", rank)
}

// checkEvents rejects a trace whose event count does not fit a step's
// sequence number.
func checkEvents(n int) error {
	if n > math.MaxInt32 {
		return fmt.Errorf("analyzer: trace has %d events, more than the %d a replay numbers", n, math.MaxInt32)
	}
	return nil
}

// resized returns a slice of length n on s's array when that is big enough,
// elements as they were, or else a new zeroed one.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// keySet is a set of receive keys whose table outlives one build: open
// addressing over a power-of-two table, where a slot holds a member only if
// it carries the current stamp, so that emptying the set is one increment.
type keySet struct {
	slots []keySlot
	stamp uint32
	n     int // members
}

type keySlot struct {
	key   [3]int32
	stamp uint32
}

// reset empties s and keeps its table.
func (s *keySet) reset() {
	s.n = 0
	if s.stamp++; s.stamp == 0 { // wrapped: old stamps would read as current
		clear(s.slots)
		s.stamp = 1
	}
}

// add inserts k unless it is a member already.
func (s *keySet) add(k [3]int32) {
	if 2*(s.n+1) > len(s.slots) {
		old := s.slots
		s.slots, s.n = make([]keySlot, max(64, 2*len(old))), 0
		for _, sl := range old {
			if sl.stamp == s.stamp {
				s.add(sl.key)
			}
		}
	}
	mask := uint64(len(s.slots) - 1)
	h := (uint64(uint32(k[0]))<<32 | uint64(uint32(k[1]))) ^ uint64(uint32(k[2]))*0x9e3779b97f4a7c15
	h ^= h >> 32
	h *= 0xbf58476d1ce4e5b9
	for i := (h ^ h>>29) & mask; ; i = (i + 1) & mask {
		switch sl := &s.slots[i]; {
		case sl.stamp != s.stamp:
			*sl = keySlot{k, s.stamp}
			s.n++
			return
		case sl.key == k:
			return
		}
	}
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
// restricted to that rank. A trace that repeats a rank id, or has more
// events than a step can number, yields a schedule whose err says so. The
// schedule is a recycled one if there is one (schedules).
func buildSchedule(t *trace.Trace, cfg Config) *schedule {
	start := cfg.Obs.Now()
	sc, _ := schedules.Get().(*schedule)
	if sc == nil {
		sc = &schedule{}
	}
	*sc = schedule{app: t.App, procs: t.NumRanks(), shards: sc.shards, sampleShard: sc.sampleShard, mem: sc.mem}
	mem := &sc.mem
	if sc.err = checkEvents(t.NumEvents()); sc.err != nil {
		return sc
	}

	sc.shards = resized(sc.shards, len(t.Ranks))
	clear(sc.shards)
	dense := true
	for ri := range t.Ranks {
		sc.shards[ri].rank = t.Ranks[ri].Rank
		dense = dense && t.Ranks[ri].Rank == int32(ri)
	}
	if !dense {
		if mem.ranks == nil {
			mem.ranks = make(map[int32]int, len(t.Ranks))
		}
		clear(mem.ranks)
		sc.byRank = mem.ranks
		for ri := range t.Ranks {
			id := t.Ranks[ri].Rank
			if _, dup := sc.byRank[id]; dup {
				sc.err = errRepeatedRank(id)
				return sc
			}
			sc.byRank[id] = ri
		}
	}

	// Count before filling: every shard's stream is an exact slice of one
	// array instead of a doubling series, and the same pass yields the call
	// mix and the schedule's receive statistics. A receive's tag is part of
	// its key, so the distinct tags are read off the distinct keys
	// afterwards: one set insert per receive, not two.
	mem.keys.reset()
	mem.tags.reset()
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
				mem.keys.add([3]int32{e.Peer, e.Tag, e.Comm})
			case trace.OpProgress:
				sh.progress++
			case trace.OpSend:
				if di, ok := sc.shardOf(e.Peer); ok {
					sc.shards[di].sends++
				}
			}
		}
		sh.sampleOff = nProgress
		nProgress += sh.progress
	}
	for _, sl := range mem.keys.slots {
		if sl.stamp == mem.keys.stamp && sl.key[1] != trace.AnyTag {
			mem.tags.add([3]int32{sl.key[1]})
		}
	}
	sc.tagsUsed, sc.uniqueKeys = mem.tags.n, mem.keys.n
	total := 0
	for i := range sc.shards {
		sh := &sc.shards[i]
		total += sh.recvs + sh.sends + sh.progress
	}
	mem.steps = resized(mem.steps, total)
	off := 0
	for i := range sc.shards {
		sh := &sc.shards[i]
		n := sh.recvs + sh.sends + sh.progress
		sh.steps = mem.steps[off : off : off+n]
		off += n
	}

	// seq numbers every trace event in emission order (including kinds
	// that schedule nothing) so ties resolve identically to the serial
	// path's global sort. Progress steps are also gathered in one list,
	// whose sorted order is the merge's.
	progress := mem.progress[:0]
	var seq int32
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
	mem.progress = progress

	// Sort shards on the replay's worker pool: many small sorts replace the
	// serial path's one global O(E log E) sort, and each is a merge of the
	// few ascending runs the fill above left (sortRuns), not a sort from
	// scratch. The progress list, one run per rank, is sorted last.
	workers := cfg.workerCount(len(sc.shards))
	mem.sorting = resized(mem.sorting, workers)
	runPool(len(sc.shards), workers, func(w, i int) {
		sortRuns(sc.shards[i].steps, &mem.sorting[w])
	})
	sortRuns(progress, &mem.sorting[0])
	sc.sampleShard = resized(sc.sampleShard, len(progress))
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

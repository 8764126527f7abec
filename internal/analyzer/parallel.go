package analyzer

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/match"
	"repro/internal/obs"
	"repro/internal/trace"
)

// progressSample is one shard-local OpProgress observation. Samples are
// kept raw (integers) so the merge step can
// fold them into the Report's floating-point aggregates in exactly the
// global (time, seq) order the serial path uses — float addition is not
// associative, and byte-identical reports require an identical reduction
// order, not just an equivalent one.
type progressSample struct {
	posted int
	empty  int
	total  int
	occOK  bool
}

// shardResult is everything one rank's replay contributes to a Report.
type shardResult struct {
	samples    []progressSample
	depth      match.Stats
	unexpected uint64
	err        error
}

// replaySlab is one replay worker's reusable step objects. The engines keep
// the *match.Recv and *match.Envelope they are handed until the pair
// completes, and no longer: a step's object is free again once its pair
// is. A worker therefore draws them from two arrays sized to its largest
// shard so far, which they never outgrow, and takes back each pair's two
// as it completes; the next step reuses the last object freed, still in
// cache, before it touches a new one. No step allocates.
type replaySlab struct {
	recvs     []match.Recv
	envs      []match.Envelope
	freeRecvs []*match.Recv // taken back, last freed on top
	freeEnvs  []*match.Envelope
}

// runShard replays one rank's step stream through an engine instance that
// it releases when done, appending the progress samples to samples (which
// has room for them). It is the per-rank slice of the serial loop in
// AnalyzeSerial; the two must stay in lockstep.
func runShard(sh *shard, cfg Config, slab *replaySlab, samples []progressSample) shardResult {
	var res shardResult
	start := cfg.Obs.Now()
	m, err := newInstance(cfg, core.New)
	if err != nil {
		res.err = err
		return res
	}
	defer m.release() // after depth and unexpectedTotal are read
	if cap(slab.recvs) < sh.recvs {
		slab.recvs = make([]match.Recv, sh.recvs)
		slab.freeRecvs = make([]*match.Recv, 0, sh.recvs)
	}
	if cap(slab.envs) < sh.sends {
		slab.envs = make([]match.Envelope, sh.sends)
		slab.freeEnvs = make([]*match.Envelope, 0, sh.sends)
	}
	recvs, envs := slab.recvs[:sh.recvs], slab.envs[:sh.sends]
	freeRecvs, freeEnvs := slab.freeRecvs[:0], slab.freeEnvs[:0]
	for _, s := range sh.steps {
		switch s.kind {
		case trace.OpRecv:
			var r *match.Recv
			if n := len(freeRecvs); n > 0 {
				r, freeRecvs = freeRecvs[n-1], freeRecvs[:n-1]
			} else {
				r, recvs = &recvs[0], recvs[1:]
			}
			*r = match.Recv{Source: match.Rank(s.peer), Tag: match.Tag(s.tag), Comm: match.CommID(s.comm)}
			env, err := m.post(r)
			if err != nil {
				res.err = fmt.Errorf("analyzer: rank %d: %w (raise MaxReceives)", s.rank, err)
				return res
			}
			if env != nil {
				freeRecvs, freeEnvs = append(freeRecvs, r), append(freeEnvs, env)
			}
		case trace.OpSend:
			var env *match.Envelope
			if n := len(freeEnvs); n > 0 {
				env, freeEnvs = freeEnvs[n-1], freeEnvs[:n-1]
			} else {
				env, envs = &envs[0], envs[1:]
			}
			*env = match.Envelope{Source: match.Rank(s.peer), Tag: match.Tag(s.tag), Comm: match.CommID(s.comm)}
			if r := m.arrive(env); r != nil {
				freeRecvs, freeEnvs = append(freeRecvs, r), append(freeEnvs, env)
			}
		case trace.OpProgress:
			empty, total, ok := m.occupancy()
			samples = append(samples, progressSample{
				posted: m.posted(),
				empty:  empty,
				total:  total,
				occOK:  ok,
			})
		}
	}
	res.samples = samples
	res.depth = m.depth()
	res.unexpected = m.unexpectedTotal()
	cfg.Obs.CounterInc(obs.CtrAnalyzerShards)
	cfg.Obs.CounterAdd(obs.CtrAnalyzerEvents, uint64(len(sh.steps)))
	if cfg.Obs.Enabled() {
		cfg.Obs.Event(obs.EvAnalyzerShard, int(sh.rank),
			uint64(sh.rank), uint64(len(sh.steps)), uint64(cfg.Obs.Now()-start))
	}
	return res
}

// workerCount resolves the pool width: Config.Workers, defaulting to
// GOMAXPROCS, clamped to the task count.
func (c Config) workerCount(tasks int) int {
	w := c.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > tasks {
		w = tasks
	}
	if w < 1 {
		w = 1
	}
	return w
}

// runPool executes n tasks on a bounded worker pool. A task is told which
// worker (0..workers-1) runs it, so callers can keep per-worker state
// without locking.
func runPool(n, workers int, task func(worker, i int)) {
	if workers <= 1 {
		for i := 0; i < n; i++ {
			task(0, i)
		}
		return
	}
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				task(w, i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
}

// merge folds one configuration's per-shard results into one Report.
// Progress samples from all shards are taken in (time, seq) order — the
// global replay order, which the schedule fixed as sampleShard — and the
// floating-point aggregates (PostedAvg, EmptyBinPct) are accumulated in
// that order, so the merged Report is byte-identical to AnalyzeSerial's.
// Counter merges (depth stats, unexpected totals) are order-independent;
// the receive statistics are the schedule's.
func (sc *schedule) merge(results []shardResult, cfg Config) (*Report, error) {
	for i := range results {
		if results[i].err != nil {
			return nil, results[i].err
		}
	}

	rep := &Report{App: sc.app, Procs: sc.procs, Bins: cfg.Bins, Mix: sc.mix,
		TagsUsed: sc.tagsUsed, UniqueKeys: sc.uniqueKeys, WildcardRecvs: sc.wildcardRecvs}

	for i := range results {
		r := &results[i]
		rep.Depth = rep.Depth.Add(r.depth)
		rep.Unexpected += r.unexpected
	}
	rep.Matched = rep.Depth.Matched

	var postedSamples, emptySamples int
	var postedSum, emptySum float64
	next := resized(sc.mem.next, len(results)) // next[i]: shard i's first sample not yet taken
	clear(next)
	sc.mem.next = next
	for _, si := range sc.sampleShard {
		s := &results[si].samples[next[si]]
		next[si]++
		postedSum += float64(s.posted)
		if s.posted > rep.PostedMax {
			rep.PostedMax = s.posted
		}
		postedSamples++
		if s.occOK && s.total > 0 {
			emptySum += 100 * float64(s.empty) / float64(s.total)
			emptySamples++
		}
	}
	if postedSamples > 0 {
		rep.PostedAvg = postedSum / float64(postedSamples)
	}
	if emptySamples > 0 {
		rep.EmptyBinPct = emptySum / float64(emptySamples)
	}
	return rep, nil
}

// Phase codes carried by EvAnalyzerPhase events (A payload word).
const (
	phaseSchedule uint64 = iota
	phaseReplay
	phaseMerge
)

// validateBins rejects the bin counts every replay path refuses: zero or
// negative counts, and counts that are not powers of two (the paper sweeps
// 1…256 in powers of two and the msgrate CLI enforces the same contract).
// Validating up front turns what used to be divergent per-bin failures
// mid-sweep into one clear error before any shard runs.
func validateBins(b int) error {
	if b < 1 {
		return fmt.Errorf("analyzer: Bins must be >= 1, got %d", b)
	}
	if b&(b-1) != 0 {
		return fmt.Errorf("analyzer: Bins must be a power of two, got %d", b)
	}
	return nil
}

// normalizeBins validates a sweep's bin counts once up front and dedupes
// repeats (first occurrence wins, order preserved). An empty sweep is an
// error.
func normalizeBins(bins []int) ([]int, error) {
	if len(bins) == 0 {
		return nil, fmt.Errorf("analyzer: empty bin sweep")
	}
	seen := make(map[int]bool, len(bins))
	out := make([]int, 0, len(bins))
	for _, b := range bins {
		if err := validateBins(b); err != nil {
			return nil, err
		}
		if seen[b] {
			continue
		}
		seen[b] = true
		out = append(out, b)
	}
	return out, nil
}

// sweep replays the schedule once per bin count. The step streams are
// built and sorted exactly once for the whole sweep, and the replay is
// shard-major: one worker replays a shard at every bin count back to back,
// while its steps are still in cache. Bin counts are validated and
// deduplicated up front (normalizeBins), and the engine is checked before
// any shard runs: the returned reports align with the deduplicated list.
func (sc *schedule) sweep(bins []int, cfg Config) ([]*Report, error) {
	if sc.err != nil {
		return nil, sc.err
	}
	bins, err := normalizeBins(bins)
	if err != nil {
		return nil, err
	}
	if err := validEngine(cfg.Engine); err != nil {
		return nil, err
	}
	cfg.fill()
	cfgs := make([]Config, len(bins))
	for i, b := range bins {
		cfgs[i] = cfg
		cfgs[i].Bins = b
	}
	// results[ci*ns+si] is shard si at cfgs[ci]; its samples sit at
	// samples[ci*np+sh.sampleOff:], room for sh.progress of them.
	nc, ns, np := len(cfgs), len(sc.shards), len(sc.sampleShard)
	mem := &sc.mem
	mem.results = resized(mem.results, nc*ns)
	mem.samples = resized(mem.samples, nc*np)
	replayStart := cfg.Obs.Now()
	workers := cfg.workerCount(ns)
	mem.slabs = resized(mem.slabs, workers)
	runPool(ns, workers, func(w, si int) {
		sh := &sc.shards[si]
		for ci := range cfgs {
			samples := mem.samples[ci*np+sh.sampleOff:][:0:sh.progress]
			mem.results[ci*ns+si] = runShard(sh, cfgs[ci], &mem.slabs[w], samples)
		}
	})
	if cfg.Obs.Enabled() {
		cfg.Obs.Event(obs.EvAnalyzerPhase, 0, phaseReplay, uint64(cfg.Obs.Now()-replayStart), 0)
	}
	mergeStart := cfg.Obs.Now()
	out := make([]*Report, 0, nc)
	for ci := range cfgs {
		rep, err := sc.merge(mem.results[ci*ns:(ci+1)*ns], cfgs[ci])
		if err != nil {
			return nil, err
		}
		out = append(out, rep)
	}
	if cfg.Obs.Enabled() {
		cfg.Obs.Event(obs.EvAnalyzerPhase, 0, phaseMerge, uint64(cfg.Obs.Now()-mergeStart), 0)
	}
	return out, nil
}

// recycle hands sc, memory and all, to the next buildSchedule. Nothing may
// use it afterwards.
func (sc *schedule) recycle() {
	clear(sc.mem.results) // errors and the samples' array
	schedules.Put(sc)
}

package analyzer

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/match"
	"repro/internal/obs"
	"repro/internal/trace"
)

// progressSample is one shard-local OpProgress observation. Samples are
// kept raw (integers plus the step's time/seq identity) so the merge step
// can fold them into the Report's floating-point aggregates in exactly the
// global (time, seq) order the serial path uses — float addition is not
// associative, and byte-identical reports require an identical reduction
// order, not just an equivalent one.
type progressSample struct {
	time       float64
	seq        int
	rank       int32
	posted     int
	unexpected int
	empty      int
	total      int
	occOK      bool
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
// completes, so every step needs its own — but only for the life of the
// shard's matcher, which dies with runShard. A worker therefore draws them
// from two arrays sized to its largest shard so far and overwrites them
// shard after shard, where a heap object per step was the replay's largest
// source of garbage.
type replaySlab struct {
	recvs []match.Recv
	envs  []match.Envelope
}

// runShard replays one rank's step stream through a fresh engine instance.
// It is the per-rank slice of the serial loop in AnalyzeSerial; the two
// must stay in lockstep.
func runShard(sh *shard, cfg Config, slab *replaySlab) shardResult {
	var res shardResult
	start := cfg.Obs.Now()
	m, err := newInstance(cfg)
	if err != nil {
		res.err = err
		return res
	}
	if cap(slab.recvs) < sh.recvs {
		slab.recvs = make([]match.Recv, sh.recvs)
	}
	if cap(slab.envs) < sh.sends {
		slab.envs = make([]match.Envelope, sh.sends)
	}
	recvs, envs := slab.recvs[:sh.recvs], slab.envs[:sh.sends]
	res.samples = make([]progressSample, 0, sh.progress)
	for _, s := range sh.steps {
		switch s.kind {
		case trace.OpRecv:
			r := &recvs[0]
			recvs = recvs[1:]
			*r = match.Recv{Source: match.Rank(s.peer), Tag: match.Tag(s.tag), Comm: match.CommID(s.comm)}
			if err := m.post(r); err != nil {
				res.err = fmt.Errorf("analyzer: rank %d: %w (raise MaxReceives)", s.rank, err)
				return res
			}
		case trace.OpSend:
			env := &envs[0]
			envs = envs[1:]
			*env = match.Envelope{Source: match.Rank(s.peer), Tag: match.Tag(s.tag), Comm: match.CommID(s.comm)}
			m.arrive(env)
		case trace.OpProgress:
			empty, total, ok := m.occupancy()
			res.samples = append(res.samples, progressSample{
				time:       s.time,
				seq:        s.seq,
				rank:       s.rank,
				posted:     m.posted(),
				unexpected: m.unexpectedNow(),
				empty:      empty,
				total:      total,
				occOK:      ok,
			})
		}
	}
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

// merge folds per-shard results into one Report. Progress samples from all
// shards are merged into (time, seq) order — the global replay order — and the
// floating-point aggregates (PostedAvg, EmptyBinPct) are accumulated in
// that order, so the merged Report is byte-identical to AnalyzeSerial's.
// Counter merges (depth stats, unexpected totals) are order-independent;
// the receive statistics are the schedule's.
func (sc *Schedule) merge(results []shardResult, cfg Config) (*Report, error) {
	for i := range results {
		if results[i].err != nil {
			return nil, results[i].err
		}
	}

	rep := &Report{App: sc.app, Procs: sc.procs, Bins: cfg.Bins, Mix: sc.mix,
		TagsUsed: sc.tagsUsed, UniqueKeys: sc.uniqueKeys, WildcardRecvs: sc.wildcardRecvs}

	nSamples := 0
	for i := range results {
		r := &results[i]
		rep.Depth = rep.Depth.Add(r.depth)
		rep.Unexpected += r.unexpected
		nSamples += len(r.samples)
	}
	rep.Matched = rep.Depth.Matched

	// Each shard's samples are in its replay order, so their concatenation
	// is one ascending run per shard: merged, not sorted from scratch.
	samples := make([]progressSample, 0, nSamples)
	for i := range results {
		samples = append(samples, results[i].samples...)
	}
	sortRuns(samples, &runScratch[progressSample]{}, sampleLess)

	var postedSamples, emptySamples int
	var postedSum, emptySum float64
	for _, s := range samples {
		postedSum += float64(s.posted)
		if s.posted > rep.PostedMax {
			rep.PostedMax = s.posted
		}
		postedSamples++
		if s.occOK && s.total > 0 {
			emptySum += 100 * float64(s.empty) / float64(s.total)
			emptySamples++
		}
		if cfg.RecordSeries {
			rep.Series = append(rep.Series, DataPoint{
				Time:       s.time,
				Rank:       s.rank,
				Posted:     s.posted,
				Unexpected: s.unexpected,
				EmptyBins:  s.empty,
				TotalBins:  s.total,
			})
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

// Analyze replays the schedule at one configuration, running shards on a
// bounded worker pool (Config.Workers wide, default GOMAXPROCS).
func (sc *Schedule) Analyze(cfg Config) (*Report, error) {
	cfg.fill()
	if err := validateBins(cfg.Bins); err != nil {
		return nil, err
	}
	results := make([]shardResult, len(sc.shards))
	replayStart := cfg.Obs.Now()
	workers := cfg.workerCount(len(sc.shards))
	slabs := make([]replaySlab, workers)
	runPool(len(sc.shards), workers, func(w, i int) {
		results[i] = runShard(&sc.shards[i], cfg, &slabs[w])
	})
	if cfg.Obs.Enabled() {
		cfg.Obs.Event(obs.EvAnalyzerPhase, 0, phaseReplay, uint64(cfg.Obs.Now()-replayStart), 0)
	}
	mergeStart := cfg.Obs.Now()
	rep, err := sc.merge(results, cfg)
	if cfg.Obs.Enabled() {
		cfg.Obs.Event(obs.EvAnalyzerPhase, 0, phaseMerge, uint64(cfg.Obs.Now()-mergeStart), 0)
	}
	return rep, err
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

// NormalizeBins validates a sweep's bin counts once up front and dedupes
// repeats (first occurrence wins, order preserved). An empty sweep is an
// error.
func NormalizeBins(bins []int) ([]int, error) {
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

// Sweep replays the schedule once per bin count, fanning every
// (bin count × shard) replay out over one shared worker pool. The step
// streams are built and sorted exactly once for the whole sweep. Bin
// counts are validated and deduplicated up front (NormalizeBins): the
// returned reports align with the deduplicated list.
func (sc *Schedule) Sweep(bins []int, cfg Config) ([]*Report, error) {
	bins, err := NormalizeBins(bins)
	if err != nil {
		return nil, err
	}
	cfgs := make([]Config, len(bins))
	for i, b := range bins {
		cfgs[i] = cfg
		cfgs[i].Bins = b
	}
	return sc.SweepConfigs(cfgs, cfg)
}

// SweepConfigs generalizes Sweep to arbitrary per-replay configurations:
// the schedule is replayed once per entry of cfgs, and every
// (config × shard) replay fans out over the one worker pool sized by
// pool.Workers. Any replay-free field may vary between entries (Bins,
// Engine, MaxReceives, RecordSeries); the schedule-frozen fields (Latency,
// LatencySpread) were fixed at BuildSchedule time and entries' values are
// ignored. Reports align with cfgs. Every configuration is validated up
// front so a bad entry fails before any shard runs.
func (sc *Schedule) SweepConfigs(cfgs []Config, pool Config) ([]*Report, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("analyzer: empty configuration sweep")
	}
	pool.fill()
	for i := range cfgs {
		cfgs[i].fill()
		cfgs[i].Workers = pool.Workers
		cfgs[i].Obs = pool.Obs
		if err := validateBins(cfgs[i].Bins); err != nil {
			return nil, fmt.Errorf("configs[%d]: %w", i, err)
		}
		if err := validEngine(cfgs[i].Engine); err != nil {
			return nil, fmt.Errorf("configs[%d]: %w", i, err)
		}
	}
	nc, ns := len(cfgs), len(sc.shards)
	results := make([][]shardResult, nc)
	for ci := range results {
		results[ci] = make([]shardResult, ns)
	}
	workers := pool.workerCount(nc * ns)
	slabs := make([]replaySlab, workers)
	runPool(nc*ns, workers, func(w, i int) {
		ci, si := i/max(ns, 1), i%max(ns, 1)
		results[ci][si] = runShard(&sc.shards[si], cfgs[ci], &slabs[w])
	})
	out := make([]*Report, 0, nc)
	for ci := range results {
		rep, err := sc.merge(results[ci], cfgs[ci])
		if err != nil {
			return nil, err
		}
		out = append(out, rep)
	}
	return out, nil
}

package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/obs"
)

// driverGoroutines is how many goroutines generate load: the reference box
// has two cores, and more drivers than cores would measure the scheduler.
const driverGoroutines = 2

// benchProcs is the GOMAXPROCS every workload runs at. The stack hands
// every message between goroutines. On one P a hand-off is a switch inside
// the Go scheduler, the same instructions on every run; on two it is a
// wake-up of the other core, and on a shared two-core box how long that
// takes is the neighbours' doing. Ten runs of nc_burst spread by 19 % on two
// Ps and by 2 % on one (and ran twice as fast), daemon_churn by 13-45 % and
// by 3 %. What a run reports is therefore the cost of the program's own
// instructions on one core; what a second core would add is not measured.
const benchProcs = 1

// size fixes how much work a workload does per repetition. Every
// repetition has a fixed operation count, never a fixed duration: the run's
// length decides only how many repetitions are made.
type size struct {
	k        int // messages per sequence
	payload  int // bytes per message
	repSeqs  int // message workloads: sequences per repetition
	repOps   int // operations per repetition
	latBatch int // latency units timed per batch
	maxProcs int // analyze_sweep: sweep the applications of at most this many ranks
	scale    int // analyze_sweep: tracegen scale in percent
}

// opResult counts the operations of one repetition or latency batch.
type opResult struct{ attempted, failed int }

func (a *opResult) add(b opResult) { a.attempted += b.attempted; a.failed += b.failed }

// instance is one built workload: worlds, daemon or traces constructed and
// ready to be measured.
type instance interface {
	// rep runs one repetition of the workload's fixed size and checks its
	// outputs. With a tracer it records a span around every call it makes
	// into a layer.
	rep(tr *tracer) (opResult, error)
	// latency times n latency units one by one and appends the samples
	// (nanoseconds).
	latency(n int, samples []float64) ([]float64, opResult, error)
	// close tears the instance down.
	close() error
	// layers reports the counters the instance's layers export. It is
	// called after close, when the counters have settled.
	layers(m metricSet)
}

// workload is one named benchmark workload.
type workload struct {
	name  string
	op    string // what one operation is
	why   string
	full  size
	smoke size
	setup func(name string, in inputs, sz size, workDir string, ob obs.Options) (instance, error)
}

var workloads = []workload{
	{name: "nc_burst", op: "matched 8 B message",
		why:   "Fig. 8 no-conflict burst on the offload engine: matching is conflict-free, so the rdma-to-dpa per-message pipeline does most of the work",
		full:  size{k: 100, payload: 8, repSeqs: 400, latBatch: 5000},
		smoke: size{k: 100, payload: 8, repSeqs: 4, latBatch: 50},
		setup: setupMsg},
	{name: "wc_burst", op: "matched 8 B message",
		why:   "Fig. 8 with-conflict burst, half fast path and half slow path: core conflict detection and resolution dominate, the pipeline little",
		full:  size{k: 100, payload: 8, repSeqs: 200, latBatch: 400},
		smoke: size{k: 100, payload: 8, repSeqs: 2, latBatch: 4},
		setup: setupMsg},
	{name: "unexp_wild", op: "matched 8 B message",
		why:   "store-then-post with a wildcard mix: the core layer used the other way round, so PostRecv and the unexpected indexes carry the load",
		full:  size{k: 100, payload: 8, repSeqs: 400, latBatch: 5000},
		smoke: size{k: 100, payload: 8, repSeqs: 4, latBatch: 200},
		setup: setupMsg},
	{name: "tcp_eager", op: "matched 8 B message",
		why:   "host engine over loopback TCP with coalescing: matching is a depth-0 hit, so the coalescer, frame codec and socket path do the work",
		full:  size{k: 100, payload: 8, repSeqs: 1200, latBatch: 5000},
		smoke: size{k: 100, payload: 8, repSeqs: 12, latBatch: 50},
		setup: setupMsg},
	{name: "shm_rndv", op: "delivered 256 KiB message",
		why:   "256 KiB rendezvous over shared memory: bytes not messages, so registration, arena copies, READ and ring wake-ups dominate",
		full:  size{k: 16, payload: 256 << 10, repSeqs: 150, latBatch: 500},
		smoke: size{k: 16, payload: 256 << 10, repSeqs: 2, latBatch: 5},
		setup: setupMsg},
	{name: "analyze_sweep", op: "trace event replayed at one bin count",
		why:   "Fig. 7 sweep of 7 application traces at 1, 32 and 128 bins: no fabric and no hand-offs, so analyzer sharding and the matcher's data structures do the work",
		full:  size{maxProcs: 64, scale: 100, latBatch: 5},
		smoke: size{maxProcs: 64, scale: 1, latBatch: 3},
		setup: setupAnalyze},
	{name: "daemon_churn", op: "job reaching done",
		why:   "two tenants churning short ring jobs through the daemon: admission and world construction and teardown are the work, steady-state matching almost none",
		full:  size{repOps: 120, latBatch: 60},
		smoke: size{repOps: 20, latBatch: 2},
		setup: setupDaemon},
}

func findWorkload(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// runConfig is what one child run is asked to do.
type runConfig struct {
	workload *workload
	seed     uint64
	seconds  float64 // how long to measure
	traced   bool
	smoke    bool
	probeDiv int    // divides the layer probes' fixed work; 0 means 1
	outDir   string // where trace files and scratch directories go
}

// Shares of the measuring time. The untraced run spends them on throughput
// repetitions and on the latency loop; the traced run on plain repetitions,
// the latency loop, traced repetitions, and whatever the layer probes take.
const (
	throughputShare = 0.65
	tracedRepShare  = 0.20
	tracedLatShare  = 0.15
	tracedSpanShare = 0.20
)

// buildsPerRun is how many times an untraced run builds the workload. Each
// build is warmed up, measured for its share of the time and torn down;
// the repetitions and latency samples of all builds are pooled. setup_s is
// the median build, so one slow construction does not set it, and a build
// that happens to come up slow (goroutines placed badly, a cold pool) sets
// no metric on its own.
const buildsPerRun = 5

// maxLatencySamples bounds the latency sample of a run (8 MiB of float64).
const maxLatencySamples = 1 << 20

// runResult is everything one child run measured.
type runResult struct {
	Workload   string                `json:"workload"`
	Op         string                `json:"op"`
	Seed       uint64                `json:"seed"`
	Traced     bool                  `json:"traced"`
	Correct    bool                  `json:"correct"`
	Attempted  int                   `json:"ops_attempted"`
	Failed     int                   `json:"ops_failed"`
	Metrics    metricSet             `json:"metrics"`
	Throughput summary               `json:"throughput_reps"`
	Rates      []float64             `json:"throughput_rep_rates"`
	Latency    latencySummary        `json:"latency"`
	SetupS     []float64             `json:"setup_s_samples"`
	PeakMiB    []float64             `json:"mem_peak_mb_samples"`
	WallS      float64               `json:"wall_s"`
	CalibNs    [2]float64            `json:"calib_ns"`
	Noisy      bool                  `json:"noisy"`
	Notes      []string              `json:"notes,omitempty"`
	TraceFile  string                `json:"trace_file,omitempty"`
	SpanTotals map[string]nameTotals `json:"span_totals,omitempty"`
}

// latencySummary describes the latency sample of a run in microseconds:
// all samples pooled, and the medians of the batches they were taken in
// (nanoseconds).
type latencySummary struct {
	N           int                `json:"n"`
	P50         float64            `json:"p50_us"`
	Batches     summary            `json:"batch_p50_ns"`
	Percentiles map[string]float64 `json:"percentiles_us"`
	Highest     string             `json:"highest_supported"`
}

var processStart = time.Now()

// buildWorkload generates the inputs, constructs the workload and runs the
// fixed warm-up: one untimed repetition, so that pools and lazily built
// state are full before anything is timed. It returns how long all of that
// took.
func buildWorkload(cfg runConfig, sz size, workDir string, ob obs.Options, res *runResult) (instance, inputs, time.Duration, error) {
	start := time.Now()
	in, err := genInputs(cfg.workload.name, cfg.seed, sz)
	if err != nil {
		return nil, in, 0, err
	}
	inst, err := cfg.workload.setup(cfg.workload.name, in, sz, workDir, ob)
	if err != nil {
		return nil, in, 0, fmt.Errorf("set-up: %w", err)
	}
	r, err := inst.rep(nil)
	res.addOps(r)
	if err != nil {
		inst.close()
		return nil, in, 0, fmt.Errorf("warm-up: %w", err)
	}
	return inst, in, time.Since(start), nil
}

// run measures one workload in this process.
func run(cfg runConfig) (*runResult, error) {
	w := cfg.workload
	sz := w.full
	if cfg.smoke {
		sz = w.smoke
	}
	res := &runResult{Workload: w.name, Op: w.op, Seed: cfg.seed, Traced: cfg.traced, Metrics: metricSet{}}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(benchProcs))
	workDir, err := os.MkdirTemp(cfg.outDir, "work-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(workDir)
	goroutinesBefore := runtime.NumGoroutine()
	res.CalibNs[0] = calibrate()

	// The traced run measures the plain workload on one build, for a smaller
	// share of the time: what it needs from it is the untraced throughput
	// to set the traced one against.
	builds, repShare, latShare := buildsPerRun, throughputShare, 1-throughputShare
	if cfg.traced {
		builds, repShare, latShare = 1, tracedRepShare, tracedLatShare
	}
	budget := cfg.seconds * float64(time.Second)
	repTime := time.Duration(repShare * budget / float64(builds))
	latTime := time.Duration(latShare * budget / float64(builds))

	// The harness's own memory is the same on every run, so that it adds a
	// constant to mem_peak_mb and not noise: the latency samples go into one
	// buffer allocated up front, of which every build may fill its share.
	var rates, batchP50s []float64
	samples := make([]float64, 0, maxLatencySamples)
	scratch := make([]float64, 0, sz.latBatch+sz.k) // one batch, sorted for its median
	var timedOps int
	var mallocs, allocBytes, gcCycles uint64
	var cpu, wall float64
	var ms runtime.MemStats
	for b := 0; b < builds && len(res.Notes) == 0; b++ {
		peakIsBuilds := resetPeakRSS()
		inst, _, took, err := buildWorkload(cfg, sz, workDir, obs.Options{}, res)
		if err != nil {
			return nil, err
		}
		if b == 0 {
			took = time.Since(processStart) // the first build also pays process start
		}
		res.SetupS = append(res.SetupS, took.Seconds())

		// Throughput: fixed-size repetitions, as many as fit the share.
		runtime.ReadMemStats(&ms)
		mallocs0, bytes0, gc0 := ms.Mallocs, ms.TotalAlloc, ms.NumGC
		cpu0, phase := cpuSeconds(), time.Now()
		for n := 0; n == 0 || time.Since(phase) < repTime; n++ {
			// Every repetition starts from a collected heap, as Go's own
			// benchmarks do: where in its cycle the collector happens to be
			// otherwise carries over from one repetition to the next, and
			// whole stretches of a run come out fast or slow together.
			runtime.GC()
			start := time.Now()
			r, err := inst.rep(nil)
			took := time.Since(start)
			res.addOps(r)
			if err != nil {
				res.Notes = append(res.Notes, err.Error())
				break
			}
			timedOps += r.attempted
			rates = append(rates, float64(r.attempted)/took.Seconds())
		}
		wall += time.Since(phase).Seconds()
		cpu += cpuSeconds() - cpu0
		runtime.ReadMemStats(&ms)
		mallocs += ms.Mallocs - mallocs0
		allocBytes += ms.TotalAlloc - bytes0
		gcCycles += uint64(ms.NumGC - gc0)

		// Latency: units timed one by one in a closed loop.
		phase = time.Now()
		room := (b + 1) * maxLatencySamples / builds
		for n := 0; len(res.Notes) == 0 && (n == 0 || (time.Since(phase) < latTime && len(samples)+sz.latBatch <= room)); n++ {
			runtime.GC()
			var r opResult
			from := len(samples)
			samples, r, err = inst.latency(sz.latBatch, samples)
			res.addOps(r)
			if err != nil {
				res.Notes = append(res.Notes, err.Error())
			} else {
				scratch = append(scratch[:0], samples[from:]...)
				sort.Float64s(scratch)
				batchP50s = append(batchP50s, quantileSorted(scratch, 0.5))
			}
		}
		if err := inst.close(); err != nil {
			res.Notes = append(res.Notes, "teardown: "+err.Error())
		}
		if peakIsBuilds {
			res.PeakMiB = append(res.PeakMiB, peakRSSMiB())
		}
	}
	if timedOps > 0 {
		res.Metrics["proc.allocs_per_op"] = float64(mallocs) / float64(timedOps)
		res.Metrics["proc.bytes_per_op"] = float64(allocBytes) / float64(timedOps)
	}
	res.Metrics["proc.gc_cycles"] = float64(gcCycles)
	res.Metrics["proc.cpu_util"] = cpu / (wall * float64(runtime.NumCPU()))
	// What the neighbours on a shared box do to a timing has one sign: it
	// slows it, for stretches of seconds at a time, and by up to 1.5x. The
	// end-to-end figures are therefore taken from the quiet quarter of the
	// run: the rate the fastest quarter of the repetitions reached, and the
	// median latency of the fastest quarter of the batches. A change to the
	// program moves the quiet quarter as it moves everything else; a
	// neighbour moves it only when it is busy for three quarters of the run.
	// The plain medians are reported next to them as diagnostics.
	res.Throughput, res.Rates = summarize(rates), rates
	res.Metrics["throughput_ops_s"] = res.Throughput.Q3
	res.Metrics["e2e.throughput_median_ops_s"] = res.Throughput.Median
	res.Metrics["e2e.throughput_reps"] = float64(len(rates))
	res.Latency = summarizeLatency(samples)
	res.Latency.Batches = summarize(batchP50s)
	res.Metrics["latency_p50_us"] = res.Latency.Batches.Q1 / 1e3
	res.Metrics["e2e.latency_pooled_p50_us"] = res.Latency.P50
	res.Metrics["e2e.latency_p99_us"] = res.Latency.Percentiles["p99"]
	res.Metrics["e2e.latency_samples"] = float64(res.Latency.N)

	if cfg.traced && len(res.Notes) == 0 {
		if err := runTraced(cfg, sz, workDir, res); err != nil {
			res.Notes = append(res.Notes, err.Error())
		}
	}

	// Teardown checks count as failures: nothing may keep running, and
	// nothing may be left on disk.
	leaked := settleGoroutines(goroutinesBefore)
	res.Metrics["proc.goroutines_leaked"] = float64(leaked)
	if leaked > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf("%d goroutines still running after teardown", leaked))
		res.Failed += leaked
	}
	if left, _ := filepath.Glob(filepath.Join(workDir, "*")); len(left) > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf("%d files or directories left behind: %v", len(left), left))
		res.Failed += len(left)
	}

	res.CalibNs[1] = calibrate()
	drift := 100 * (res.CalibNs[1] - res.CalibNs[0]) / res.CalibNs[0]
	res.Metrics["env.calib_drift_pct"] = drift
	res.Noisy = drift > 10 || drift < -10
	res.Metrics["setup_s"] = median(res.SetupS)
	// Peak memory is the median build's: how far the heap overshoots in one
	// build depends on where the collector's cycles fall (analyze_sweep:
	// 106 to 192 MiB for the same work), and the process-wide high-water
	// mark would report the worst of five draws.
	res.Metrics["mem_peak_mb"] = peakRSSMiB()
	if len(res.PeakMiB) > 0 {
		res.Metrics["mem_peak_mb"] = median(res.PeakMiB)
	}
	res.Metrics["fail_ratio"] = float64(res.Failed) / float64(max(res.Attempted, 1))
	res.WallS = time.Since(processStart).Seconds()
	res.Correct = res.Failed == 0 && len(res.Notes) == 0
	return res, nil
}

func (r *runResult) addOps(o opResult) {
	r.Attempted += o.attempted
	r.Failed += o.failed
}

// summarizeLatency sorts the samples in place.
func summarizeLatency(s []float64) latencySummary {
	sort.Float64s(s)
	out := latencySummary{N: len(s), P50: quantileSorted(s, 0.5) / 1e3, Percentiles: map[string]float64{}}
	for _, t := range tails[:supportedTails(len(s))] {
		out.Highest = t.name
		out.Percentiles[t.name] = quantileSorted(s, 1-1/float64(t.oneIn)) / 1e3
	}
	return out
}

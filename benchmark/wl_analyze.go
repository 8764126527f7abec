package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"time"

	"repro/internal/analyzer"
	"repro/internal/match"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

// sweepBins are the bin counts of the paper's Figure 7 summary: list
// matching, and the two table sizes it reports reductions for.
var sweepBins = []int{1, 32, 128}

// serialChecked is how many of the smallest applications the first
// repetition also replays through the unsharded reference.
const serialChecked = 3

// analyzeInstance holds the generated traces of the sweep workload.
type analyzeInstance struct {
	traces                            []*trace.Trace
	events                            int                  // events over all traces
	sink                              *obs.Sink            // the analyzer's counters
	golden                            [][]*analyzer.Report // first repetition's reports, by trace
	genNs, saveNs, loadNs, cacheBytes int64
	analyzeNs, analyzeEvents          int64 // latency loop: time and events of the Analyze calls
}

// setupAnalyze generates every application's trace and takes each through
// the binary cache, as the trace parser does on first contact.
func setupAnalyze(_ string, in inputs, sz size, workDir string, _ obs.Options) (instance, error) {
	ai := &analyzeInstance{sink: obs.New(obs.Options{})}
	apps := tracegen.Apps()
	dir, err := os.MkdirTemp(workDir, "cache-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	for _, idx := range in.AppOrder {
		start := time.Now()
		tr := apps[idx].Generate(tracegen.Config{Scale: sz.scale})
		gen := time.Now()
		if err := trace.SaveCache(dir, tr); err != nil {
			return nil, err
		}
		saved := time.Now()
		loaded, ok, err := trace.LoadCache(dir)
		if err != nil || !ok {
			return nil, fmt.Errorf("%s: cache did not load back (ok=%v): %v", tr.App, ok, err)
		}
		ai.genNs += int64(gen.Sub(start))
		ai.saveNs += int64(saved.Sub(gen))
		ai.loadNs += int64(time.Since(saved))
		if fi, err := os.Stat(filepath.Join(dir, ".trace-cache.bin")); err == nil {
			ai.cacheBytes += fi.Size()
		}
		if loaded.NumEvents() != tr.NumEvents() || loaded.NumRanks() != tr.NumRanks() {
			return nil, fmt.Errorf("%s: cache round trip changed the trace", tr.App)
		}
		ai.traces = append(ai.traces, loaded)
		ai.events += loaded.NumEvents()
	}
	return ai, nil
}

// rep sweeps every trace. One operation is one event replayed at one bin
// count. Every repetition's reports must equal the first's, and the first
// must equal the unsharded reference on the smallest traces.
func (ai *analyzeInstance) rep(tr *tracer) (opResult, error) {
	res := opResult{attempted: ai.events * len(sweepBins)}
	ln := tr.lane("main")
	root := ln.begin(spRep, 0)
	first := ai.golden == nil
	if first {
		ai.golden = make([][]*analyzer.Report, len(ai.traces))
	}
	for i, t := range ai.traces {
		sp := ln.begin(spSweep, uint32(i))
		reports, err := analyzer.Sweep(t, sweepBins, analyzer.Config{Obs: ai.sink})
		ln.end(sp)
		if err != nil {
			res.failed = res.attempted
			return res, err
		}
		sp = ln.begin(spVerify, uint32(i))
		if first {
			ai.golden[i] = reports
		} else if !reflect.DeepEqual(reports, ai.golden[i]) {
			res.failed += t.NumEvents() * len(sweepBins)
		}
		ln.end(sp)
	}
	ln.end(root)
	if first {
		failed, err := ai.checkSerial()
		res.failed += failed
		if err != nil {
			return res, err
		}
	}
	return res, nil
}

// checkSerial compares the sharded reports of the smallest traces with
// analyzer.AnalyzeSerial, the unsharded reference.
func (ai *analyzeInstance) checkSerial() (int, error) {
	order := make([]int, len(ai.traces))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return ai.traces[order[a]].NumEvents() < ai.traces[order[b]].NumEvents()
	})
	failed := 0
	for _, i := range order[:min(serialChecked, len(order))] {
		for bi, bins := range sweepBins {
			ref, err := analyzer.AnalyzeSerial(ai.traces[i], analyzer.Config{Bins: bins})
			if err != nil {
				return failed, err
			}
			if !reflect.DeepEqual(ref, ai.golden[i][bi]) {
				failed += ai.traces[i].NumEvents()
			}
		}
	}
	return failed, nil
}

// latencyBin indexes sweepBins: the latency unit replays at 32 bins.
const latencyBin = 1

// latency times single analyzer.Analyze calls: the trace with the most
// events, at 32 bins. One unit, so that the samples have one distribution
// and their median does not sit between the costs of two traces.
func (ai *analyzeInstance) latency(n int, samples []float64) ([]float64, opResult, error) {
	res := opResult{attempted: n}
	ti, bi := 0, latencyBin
	for i, t := range ai.traces {
		if t.NumEvents() > ai.traces[ti].NumEvents() {
			ti = i
		}
	}
	for i := 0; i < n; i++ {
		start := time.Now()
		rep, err := analyzer.Analyze(ai.traces[ti], analyzer.Config{Bins: sweepBins[bi], Obs: ai.sink})
		took := time.Since(start)
		if err != nil {
			res.failed = res.attempted
			return samples, res, err
		}
		samples = append(samples, float64(took))
		ai.analyzeNs += int64(took)
		ai.analyzeEvents += int64(ai.traces[ti].NumEvents())
		if !reflect.DeepEqual(rep, ai.golden[ti][bi]) {
			res.failed++
		}
	}
	return samples, res, nil
}

func (ai *analyzeInstance) close() error { return nil }

func (ai *analyzeInstance) layers(m metricSet) {
	m["tracegen.generate_ms"] = float64(ai.genNs) / 1e6
	m["trace.cache_save_ms"] = float64(ai.saveNs) / 1e6
	m["trace.cache_load_ms"] = float64(ai.loadNs) / 1e6
	m["trace.cache_bytes"] = float64(ai.cacheBytes)
	m["analyzer.shards"] = float64(ai.sink.Counters.Load(obs.CtrAnalyzerShards))
	m["analyzer.events"] = float64(ai.sink.Counters.Load(obs.CtrAnalyzerEvents))
	if ai.analyzeEvents > 0 {
		m["analyzer.analyze_ns_per_event"] = float64(ai.analyzeNs) / float64(ai.analyzeEvents)
	}
	// Search depth at one bin, where every search walks a list: the sweep's
	// first bin count.
	var depth match.Stats
	for _, reports := range ai.golden {
		depth = depth.Add(reports[0].Depth)
	}
	if depth.PostSearches > 0 && depth.ArriveSearches > 0 {
		m["core.post_traversed_per_search"] = float64(depth.PostTraversed) / float64(depth.PostSearches)
		m["core.arrive_traversed_per_search"] = float64(depth.ArriveTraversed) / float64(depth.ArriveSearches)
	}
}

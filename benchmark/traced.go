package main

import (
	"fmt"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/obs"
)

// runTraced is the second half of a traced run. The first half measured the
// workload untraced on a plain instance; this half builds it again with the
// program's own observability recording, repeats it with a span around
// every call the driver makes into a layer, and then runs the isolated
// layer probes. End-to-end metrics never come from here: the traced
// repetitions only give the per-layer numbers and, set against the
// untraced ones, the cost of tracing.
func runTraced(cfg runConfig, sz size, workDir string, res *runResult) error {
	w := cfg.workload
	inst, in, _, err := buildWorkload(cfg, sz, workDir, obs.Options{}.Tracing(), res)
	if err != nil {
		return fmt.Errorf("traced build: %w", err)
	}

	tr := newTracer()
	var rates []float64
	var last opResult
	deadline := time.Now().Add(time.Duration(tracedSpanShare * cfg.seconds * float64(time.Second)))
	for len(rates) == 0 || time.Now().Before(deadline) {
		start := time.Now()
		last, err = inst.rep(tr)
		took := time.Since(start)
		res.addOps(last)
		if err != nil {
			inst.close()
			return fmt.Errorf("traced repetition: %w", err)
		}
		rates = append(rates, float64(last.attempted)/took.Seconds())
	}
	if err := inst.close(); err != nil {
		return fmt.Errorf("traced teardown: %w", err)
	}
	inst.layers(res.Metrics)

	m := res.Metrics
	if plain := res.Throughput.Median; plain > 0 {
		m["bench.trace_overhead_pct"] = 100 * (plain - median(rates)) / plain
	}
	sum := tr.summary()
	spanMetrics(&sum, last.attempted, sz, m)
	res.SpanTotals = sum.named()
	res.TraceFile = filepath.Join(cfg.outDir, "trace_"+w.name+".json")
	if err := tr.write(res.TraceFile, w.name, cfg.seed, &sum); err != nil {
		return err
	}

	pin := probeInput{plans: in.Plans, storeFirst: msgSpecs[w.name].storeFirst, workDir: workDir, div: max(cfg.probeDiv, 1)}
	if pin.plans == nil { // workloads without message plans probe the no-conflict ones
		plans, err := genInputs("nc_burst", cfg.seed, workloads[0].full)
		if err != nil {
			return err
		}
		pin.plans = plans.Plans
	}
	for _, p := range probes {
		if p.only != nil && !slices.Contains(p.only, w.name) {
			continue
		}
		if err := p.run(pin, m); err != nil {
			return fmt.Errorf("probe %s: %w", p.name, err)
		}
	}
	return nil
}

// spanMetrics turns the last traced repetition's spans into per-layer
// metrics: time busy in Isend and Irecv per call, time waited in Waitall
// per message and in the token exchanges per sequence, and their
// counterparts of the analyzer and the daemon.
func spanMetrics(sum *traceSummary, ops int, sz size, m metricSet) {
	t := &sum.byName
	mean := func(n spanName) float64 {
		if t[n].Count == 0 {
			return 0
		}
		return float64(t[n].TotalNs) / float64(t[n].Count)
	}
	m["bench.span_coverage_pct"] = 100 * sum.coverage
	m["mpi.isend_ns"] = mean(spIsend)
	m["mpi.irecv_ns"] = mean(spIrecv)
	if sz.k > 0 && ops > 0 {
		m["mpi.waitall_ns_per_msg"] = float64(t[spWaitall].TotalNs) / float64(ops)
		m["mpi.sync_ns_per_seq"] = float64(t[spSync].TotalNs) / float64(ops/sz.k)
	}
	if t[spSweep].Count > 0 && ops > 0 {
		m["analyzer.sweep_ns_per_event_config"] = float64(t[spSweep].TotalNs) / float64(ops)
	}
	m["daemon.submit_us"] = mean(spSubmit) / 1e3
	m["daemon.wait_us"] = mean(spWaitJob) / 1e3
}

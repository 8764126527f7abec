package main

import (
	"io"
	"testing"
)

// synthetic builds a result set with one workload whose runs report the
// given throughputs; the other metrics stay fixed.
func synthetic(throughputs []float64, mutate func(*runResult)) *resultSet {
	rs := &resultSet{Schema: resultSchema}
	for _, v := range throughputs {
		r := &runResult{Workload: "nc_burst", Correct: true, Attempted: 1000,
			Metrics:    metricSet{"throughput_ops_s": v, "latency_p50_us": 3, "mem_peak_mb": 20, "setup_s": 0.5},
			Throughput: summary{N: 7, Median: v, Q1: v * 0.99, Q3: v * 1.01}}
		if mutate != nil {
			mutate(r)
		}
		rs.Runs = append(rs.Runs, r)
	}
	return rs
}

func verdictOf(t *testing.T, rows []compareRow, metric string) string {
	t.Helper()
	for _, r := range rows {
		if r.Workload == "nc_burst" && r.Metric == metric {
			return r.Verdict
		}
	}
	t.Fatalf("no row for %s", metric)
	return ""
}

func TestCompareVerdicts(t *testing.T) {
	steady := []float64{400e3, 401e3, 399e3, 400e3, 402e3}
	scale := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i, v := range steady {
			out[i] = v * f
		}
		return out
	}
	bound := endToEnd[0].Bound // the cases assume one bound for every metric
	for _, d := range endToEnd {
		if d.Bound != bound {
			t.Fatalf("%s has another bound than %s: adapt the cases", d.Name, endToEnd[0].Name)
		}
	}
	cases := []struct {
		name     string
		old, new *resultSet
		metric   string
		want     string
	}{
		{"within the bound", synthetic(steady, nil), synthetic(scale(1-bound/2), nil), "throughput_ops_s", verdictSame},
		{"throughput fell by more than the bound", synthetic(steady, nil), synthetic(scale(1-1.2*bound), nil), "throughput_ops_s", verdictWorse},
		{"throughput rose by more than the bound", synthetic(steady, nil), synthetic(scale(1+1.2*bound), nil), "throughput_ops_s", verdictBetter},
		{"runs disagree by more than the bound", synthetic([]float64{200e3, 400e3, 600e3, 300e3, 500e3}, nil), synthetic(scale(0.5), nil), "throughput_ops_s", verdictUnresolved},
		{"single run, repetitions disagree", synthetic(steady[:1], func(r *runResult) { r.Throughput.Q1, r.Throughput.Q3 = 100e3, 900e3 }), synthetic(scale(0.5)[:1], nil), "throughput_ops_s", verdictUnresolved},
		{"single run each, steady", synthetic(steady[:1], nil), synthetic(scale(1 - 1.2*bound)[:1], nil), "throughput_ops_s", verdictWorse},
		{"a noisy run", synthetic(steady, nil), synthetic(scale(0.5), func(r *runResult) { r.Noisy = true }), "throughput_ops_s", verdictUnresolved},
		{"latency rose", synthetic(steady, nil), synthetic(steady, func(r *runResult) { r.Metrics["latency_p50_us"] = 3 * (1 + 1.2*bound) }), "latency_p50_us", verdictWorse},
		{"latency fell", synthetic(steady, nil), synthetic(steady, func(r *runResult) { r.Metrics["latency_p50_us"] = 3 * (1 - 1.2*bound) }), "latency_p50_us", verdictBetter},
		{"set-up rose by 40 % but under 50 ms", synthetic(steady, func(r *runResult) { r.Metrics["setup_s"] = 0.1 }), synthetic(steady, func(r *runResult) { r.Metrics["setup_s"] = 0.14 }), "setup_s", verdictSame},
		{"set-up rose by 40 % and 200 ms", synthetic(steady, nil), synthetic(steady, func(r *runResult) { r.Metrics["setup_s"] = 0.7 }), "setup_s", verdictWorse},
		{"a failure appeared", synthetic(steady, nil), synthetic(steady, func(r *runResult) { r.Failed = 1 }), "fail_ratio", verdictWorse},
		{"no failures either side", synthetic(steady, nil), synthetic(steady, nil), "fail_ratio", verdictSame},
	}
	for _, c := range cases {
		if got := verdictOf(t, compareSets(c.old, c.new), c.metric); got != c.want {
			t.Errorf("%s: %s is %q, want %q", c.name, c.metric, got, c.want)
		}
	}
}

func TestCompareExitStatus(t *testing.T) {
	base := synthetic([]float64{400e3}, nil)
	if code := printComparison(io.Discard, base, base, compareSets(base, base)); code != 0 {
		t.Errorf("identical sets exit %d", code)
	}
	worse := synthetic([]float64{200e3}, nil)
	if code := printComparison(io.Discard, base, worse, compareSets(base, worse)); code == 0 {
		t.Errorf("a worse row must exit non-zero")
	}
	failing := synthetic([]float64{400e3}, func(r *runResult) { r.Failed = 3 })
	if code := printComparison(io.Discard, base, failing, compareSets(base, failing)); code == 0 {
		t.Errorf("a rise in fail_ratio must exit non-zero")
	}
	rows := compareSets(base, base)
	if want := len(endToEnd) + 1; len(rows) != want {
		t.Errorf("%d rows for one workload, want one per end-to-end metric plus fail_ratio = %d", len(rows), want)
	}
}

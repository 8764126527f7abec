package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

// The expected cut points are what Python's statistics.quantiles(v, n=4)
// returns for the same values: the driver's acceptance check uses it.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		v    []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 9}, [3]float64{4, 7, 10}},
		{[]float64{41, 2.5, 3.5, 10, 40, 11, 12.25}, [3]float64{3.5, 11, 40}},
		{[]float64{1, 1, 1, 1}, [3]float64{1, 1, 1}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.v)
		if !near(q1, c.want[0]) || !near(q2, c.want[1]) || !near(q3, c.want[2]) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.v, q1, q2, q3, c.want)
		}
	}
	if q1, _, _ := quartiles(nil); !math.IsNaN(q1) {
		t.Errorf("quartiles of nothing = %v, want NaN", q1)
	}
}

func TestMedianAndSpread(t *testing.T) {
	if m := median([]float64{9, 1, 5}); m != 5 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	// quartiles 2.75 and 8.25 around a median of 5.5
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(s, 1) {
		t.Errorf("spread = %v, want 1", s)
	}
	if s := spread([]float64{7, 7, 7, 7}); s != 0 {
		t.Errorf("spread of a constant = %v", s)
	}
}

func TestQuantileSorted(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50}
	for q, want := range map[float64]float64{0: 10, 0.5: 30, 1: 50, 0.125: 15, 0.9: 46} {
		if got := quantileSorted(s, q); !near(got, want) {
			t.Errorf("quantile %v = %v, want %v", q, got, want)
		}
	}
}

// A percentile is reported only while at least ten samples lie beyond it.
func TestSupportedTails(t *testing.T) {
	for n, want := range map[int]int{0: 0, 99: 0, 100: 1, 999: 1, 1000: 2, 9999: 2, 10000: 3, 99999: 3, 100000: 4, 5000000: 4} {
		if got := supportedTails(n); got != want {
			t.Errorf("supportedTails(%d) = %d, want %d", n, got, want)
		}
	}
	samples := make([]float64, 2000)
	for i := range samples {
		samples[i] = float64(i) * 1e3 // ns
	}
	ls := summarizeLatency(samples)
	if ls.Highest != "p99" || len(ls.Percentiles) != 2 || ls.N != 2000 {
		t.Errorf("latency summary of 2000 samples: highest %q, %d percentiles", ls.Highest, len(ls.Percentiles))
	}
	if !near(ls.P50, 999.5) {
		t.Errorf("p50 = %v us, want 999.5", ls.P50)
	}
	if !near(ls.Percentiles["p99"], 1979.01) {
		t.Errorf("p99 = %v us, want 1979.01", ls.Percentiles["p99"])
	}
}

package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quantileSorted returns the q-quantile (0 ≤ q ≤ 1) of the ascending
// sample s by linear interpolation between closest ranks. It is NaN on an
// empty sample.
func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median returns the median of v.
func median(v []float64) float64 { return quantileSorted(sorted(v), 0.5) }

// quartiles mirrors Python's statistics.quantiles(v, n=4) (the exclusive
// method), which is what the acceptance check of the benchmark contract
// uses: cut points at (n+1)·k/4, interpolated between the two neighbouring
// ranks, which are clamped into the sample (so two or three values
// extrapolate, as Python does). It needs at least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sorted(v)
	n := len(s)
	if n < 2 {
		x := math.NaN()
		if n == 1 {
			x = s[0]
		}
		return x, x, x
	}
	cut := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := k*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the distance between the quartiles as a share of the median:
// the run-to-run noise figure the regression bounds are compared with.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 || math.IsNaN(q2) {
		return math.NaN()
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}

// tails lists the percentiles reported for a latency sample, by the share of
// samples beyond them: one in 10 is p90, one in 10 000 is p99.99.
var tails = []struct {
	oneIn int
	name  string
}{{10, "p90"}, {100, "p99"}, {1000, "p99.9"}, {10000, "p99.99"}}

// supportedTails returns how many of tails a sample of n supports: a
// percentile is reported only while at least ten samples lie beyond it (so
// none below n = 100). One with fewer is set by a handful of outliers.
func supportedTails(n int) int {
	k := 0
	for k < len(tails) && n >= 10*tails[k].oneIn {
		k++
	}
	return k
}

// summary describes one sample: its size, median and quartiles.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

func summarize(v []float64) summary {
	q1, q2, q3 := quartiles(v)
	return summary{N: len(v), Median: q2, Q1: q1, Q3: q3}
}

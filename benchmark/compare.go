package main

import (
	"fmt"
	"io"
	"math"
	"os"
)

// Verdicts of one (workload, metric) row.
const (
	verdictSame       = "same"
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// setupSlackS is the absolute slack on setup_s: a set-up of a few tens of
// milliseconds moves by more than its relative bound for no reason at all.
const setupSlackS = 0.05

// compareRow is one row of the comparison.
type compareRow struct {
	Workload, Metric string
	Old, New         float64
	Change           float64 // share of old by which new is worse (negative: better)
	Spread           float64 // widest run-to-run quartile spread of the two sides
	Bound            float64
	Verdict          string
}

// cmpSide gathers one workload's runs of one result set.
type cmpSide struct {
	values map[string][]float64 // per metric, one value per run
	reps   summary              // throughput repetitions of the only run, when there is one
	noisy  bool
	failed float64 // failed ÷ attempted over the runs
	runs   int
}

func gather(rs *resultSet, workload string) cmpSide {
	s := cmpSide{values: map[string][]float64{}}
	attempted, failed := 0, 0
	for _, r := range rs.Runs {
		if r.Workload != workload {
			continue
		}
		s.runs++
		s.noisy = s.noisy || r.Noisy
		s.reps = r.Throughput
		attempted += r.Attempted
		failed += r.Failed
		for _, d := range endToEnd {
			s.values[d.Name] = append(s.values[d.Name], r.Metrics[d.Name])
		}
	}
	if attempted > 0 {
		s.failed = float64(failed) / float64(attempted)
	}
	return s
}

// spreadOf is the run-to-run spread of a metric on one side. With a single
// run there is no run-to-run sample. Throughput then falls back on what the
// scatter of that run's repetitions predicts for the quartile spread of its
// median (1.25 × the repetitions' quartile spread ÷ √repetitions, exact for
// normal scatter; the upper quartile the metric reports scatters a tenth
// more), which knows nothing of drift between runs; the other metrics fall
// back on none. Use -repeat for a measured spread.
func (s cmpSide) spreadOf(metric string) float64 {
	if v := s.values[metric]; len(v) >= 2 {
		return spread(v)
	}
	if metric == "throughput_ops_s" && s.reps.N >= 2 && s.reps.Median > 0 {
		return 1.25 * (s.reps.Q3 - s.reps.Q1) / s.reps.Median / math.Sqrt(float64(s.reps.N))
	}
	return 0
}

// judge applies a metric's bound to the two sides' medians.
func judge(d metricDef, workload string, a, b cmpSide) compareRow {
	row := compareRow{Workload: workload, Metric: d.Name, Bound: d.Bound,
		Old: median(a.values[d.Name]), New: median(b.values[d.Name])}
	row.Change = (row.New - row.Old) / row.Old
	if d.Better == higher {
		row.Change = -row.Change
	}
	row.Spread = math.Max(a.spreadOf(d.Name), b.spreadOf(d.Name))
	switch {
	case a.noisy || b.noisy || row.Spread > d.Bound || math.IsNaN(row.Change):
		row.Verdict = verdictUnresolved
	case row.Change > d.Bound && !(d.Name == "setup_s" && row.New-row.Old <= setupSlackS):
		row.Verdict = verdictWorse
	case row.Change < -d.Bound:
		row.Verdict = verdictBetter
	default:
		row.Verdict = verdictSame
	}
	return row
}

// compareSets judges every (workload, end-to-end metric) pair the two sets
// share, and fail_ratio, where any rise is worse.
func compareSets(a, b *resultSet) []compareRow {
	var rows []compareRow
	for _, w := range workloads {
		sa, sb := gather(a, w.name), gather(b, w.name)
		if sa.runs == 0 || sb.runs == 0 {
			continue
		}
		for _, d := range endToEnd {
			rows = append(rows, judge(d, w.name, sa, sb))
		}
		fr := compareRow{Workload: w.name, Metric: "fail_ratio", Old: sa.failed, New: sb.failed, Verdict: verdictSame}
		if sb.failed > sa.failed {
			fr.Verdict = verdictWorse
		} else if sb.failed < sa.failed {
			fr.Verdict = verdictBetter
		}
		rows = append(rows, fr)
	}
	return rows
}

func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare <old.json> <new.json>")
		return 2
	}
	a, err := readResultSet(args[0])
	if err == nil {
		var b *resultSet
		if b, err = readResultSet(args[1]); err == nil {
			if a.Traced || b.Traced {
				err = fmt.Errorf("compare needs untraced result sets: end-to-end metrics never come from a traced run")
			} else {
				return printComparison(os.Stdout, a, b, compareSets(a, b))
			}
		}
	}
	fmt.Fprintln(os.Stderr, "benchmark compare:", err)
	return 2
}

func printComparison(w io.Writer, a, b *resultSet, rows []compareRow) int {
	fmt.Fprintf(w, "old: commit %s seed %d (%s)\nnew: commit %s seed %d (%s)\n",
		a.Env.Commit, a.Env.Seed, a.Env.Time, b.Env.Commit, b.Env.Seed, b.Env.Time)
	fmt.Fprintf(w, "%-14s %-18s %14s %14s %9s %9s %7s  %s\n", "workload", "metric", "old", "new", "worse by", "spread", "bound", "verdict")
	counts := map[string]int{}
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %-18s %14.4f %14.4f %8.1f%% %8.1f%% %6.0f%%  %s\n",
			r.Workload, r.Metric, r.Old, r.New, 100*r.Change, 100*r.Spread, 100*r.Bound, r.Verdict)
		counts[r.Verdict]++
	}
	fmt.Fprintf(w, "%d same, %d better, %d worse, %d unresolved\n",
		counts[verdictSame], counts[verdictBetter], counts[verdictWorse], counts[verdictUnresolved])
	if counts[verdictWorse] > 0 {
		return 1
	}
	return 0
}

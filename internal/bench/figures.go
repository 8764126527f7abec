package bench

import (
	"fmt"
	"sort"

	"repro/internal/analyzer"
	"repro/internal/tracegen"
)

// RunFigure6 generates every Table II application at the given scale and
// returns one analysis report per app (call-mix populated), in Table II
// order.
func RunFigure6(scale int) ([]*analyzer.Report, error) {
	var out []*analyzer.Report
	for _, app := range tracegen.Apps() {
		tr := app.Generate(tracegen.Config{Scale: scale})
		rep, err := analyzer.Analyze(tr, analyzer.Config{Bins: 32})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", app.Name, err)
		}
		out = append(out, rep)
	}
	return out, nil
}

// RunFigure7 sweeps every application over the given bin counts under cfg
// (e.g. a baseline matching strategy for cross-engine comparison) and
// returns reports keyed by application name, aligned with bins.
func RunFigure7(scale int, bins []int, cfg analyzer.Config) (map[string][]*analyzer.Report, error) {
	out := make(map[string][]*analyzer.Report)
	for _, app := range tracegen.Apps() {
		tr := app.Generate(tracegen.Config{Scale: scale})
		reps, err := analyzer.Sweep(tr, bins, cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", app.Name, err)
		}
		out[app.Name] = reps
	}
	return out, nil
}

// Figure7Reduction summarizes the headline Figure 7 claim: the cross-app
// average queue depth at each bin count and its reduction relative to the
// first (1-bin, traditional) entry.
type Figure7Reduction struct {
	Bins         []int
	AvgDepth     []float64
	ReductionPct []float64 // vs the first bin count
}

// Reduce computes the cross-application averages from RunFigure7 output.
func Reduce(byApp map[string][]*analyzer.Report, bins []int) Figure7Reduction {
	red := Figure7Reduction{
		Bins:         bins,
		AvgDepth:     make([]float64, len(bins)),
		ReductionPct: make([]float64, len(bins)),
	}
	names := make([]string, 0, len(byApp))
	for name := range byApp {
		names = append(names, name)
	}
	sort.Strings(names)
	// Only p2p applications contribute depth signal (collectives-only apps
	// have no matching traffic and would dilute the average with zeros, as
	// in the paper's plots they are shown flat at zero).
	n := 0
	for _, name := range names {
		reps := byApp[name]
		if reps[0].Depth.ArriveSearches == 0 {
			continue
		}
		for i := range bins {
			red.AvgDepth[i] += reps[i].AvgDepth()
		}
		n++
	}
	if n > 0 {
		for i := range bins {
			red.AvgDepth[i] /= float64(n)
		}
	}
	for i := range bins {
		if red.AvgDepth[0] > 0 {
			red.ReductionPct[i] = 100 * (1 - red.AvgDepth[i]/red.AvgDepth[0])
		}
	}
	return red
}

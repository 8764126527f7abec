// Command traceanalyzer is the paper's contribution C2: it loads MPI
// traces (DUMPI text directories, with a binary cache, or the built-in
// synthetic generators), replays them through the optimistic matching
// structures, and reports matching-behaviour statistics.
//
// Usage:
//
//	traceanalyzer -report callmix [-scale 100]          # Figure 6
//	traceanalyzer -report depth -bins 1,32,128          # Figure 7
//	traceanalyzer -dir traces/BoxLib_CNS -app "BoxLib CNS" -bins 1,32,128
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"repro/internal/analyzer"
	"repro/internal/bench"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

func main() {
	var (
		report     = flag.String("report", "depth", "report kind: callmix | depth | summary | tags")
		binsArg    = flag.String("bins", "1,32,128", "comma-separated bin counts")
		dir        = flag.String("dir", "", "DUMPI trace directory (default: synthetic generators)")
		app        = flag.String("app", "", "application name (required with -dir; filters otherwise)")
		scale      = flag.Int("scale", 100, "synthetic generation scale percentage")
		outdir     = flag.String("outdir", "", "also write per-run stats in the artifact layout (<outdir>/<app>/<bins>/stats.csv)")
		matcher    = flag.String("matcher", "optimistic", "matching strategy to emulate: optimistic | list | bin | rank | adaptive")
		parallel   = flag.Int("parallel", 0, "replay worker pool width (0 = GOMAXPROCS)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		traceOut   = flag.String("trace-out", "", "write a Chrome trace_event JSON (chrome://tracing, Perfetto) to this file")
		statsJSON  = flag.String("stats-json", "", "write observability counter snapshots as JSON to this file")
	)
	flag.Parse()
	engine := analyzer.Engine(*matcher)
	cfg := analyzer.Config{Engine: engine, Workers: *parallel}

	var sink *obs.Sink
	if *traceOut != "" {
		sink = obs.New(obs.Options{}.Tracing())
	} else if *statsJSON != "" {
		sink = obs.New(obs.Options{})
	}
	cfg.Obs = sink

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "traceanalyzer: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // surface only live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "traceanalyzer: %v\n", err)
			}
		}()
	}

	bins, err := parseBins(*binsArg)
	if err != nil {
		fatal(err)
	}

	switch {
	case *dir != "":
		if *app == "" {
			fatal(fmt.Errorf("-dir requires -app"))
		}
		tr, err := trace.Load(*dir, *app)
		if err != nil {
			fatal(err)
		}
		reps, err := analyzer.Sweep(tr, bins, cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Print(analyzer.FormatCallMix(reps[:1]))
		fmt.Println()
		fmt.Print(analyzer.FormatQueueDepth(*app, reps))

	case *report == "callmix":
		reps, err := bench.RunFigure6(*scale)
		if err != nil {
			fatal(err)
		}
		fmt.Println("Figure 6 — distribution of MPI communication calls")
		fmt.Print(analyzer.FormatCallMix(reps))

	case *report == "tags":
		reps, err := bench.RunFigure6(*scale)
		if err != nil {
			fatal(err)
		}
		fmt.Println("Tag usage (§V): distinct tags and receive keys per application")
		fmt.Print(analyzer.FormatTagUsage(reps))

	case *report == "depth":
		byApp, err := bench.RunFigure7(*scale, bins, cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("Figure 7 — queue depth at bins %v\n", bins)
		for _, a := range tracegen.Apps() {
			if *app != "" && a.Name != *app {
				continue
			}
			fmt.Print(analyzer.FormatQueueDepth(a.Name, byApp[a.Name]))
			if *outdir != "" {
				if err := analyzer.WriteTree(*outdir, byApp[a.Name]); err != nil {
					fatal(err)
				}
			}
		}
		red := bench.Reduce(byApp, bins)
		fmt.Println()
		printReduction(red)

	case *report == "summary":
		byApp, err := bench.RunFigure7(*scale, bins, cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Print(analyzer.FormatFigure7Summary(byApp, bins))
		red := bench.Reduce(byApp, bins)
		printReduction(red)

	default:
		fatal(fmt.Errorf("unknown report %q", *report))
	}

	if sink != nil {
		named := []obs.Named{{Name: "analyzer", Sink: sink}}
		if *traceOut != "" {
			if err := obs.WriteTraceFile(*traceOut, named); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote Chrome trace to %s\n", *traceOut)
		}
		if *statsJSON != "" {
			if err := obs.WriteJSONFile(*statsJSON, named); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote observability snapshot to %s\n", *statsJSON)
		}
	}
}

func printReduction(red bench.Figure7Reduction) {
	fmt.Println("Cross-application average queue depth (p2p apps):")
	for i, b := range red.Bins {
		fmt.Printf("  %4d bins: %7.3f  (reduction vs 1 bin: %.0f%%)\n",
			b, red.AvgDepth[i], red.ReductionPct[i])
	}
}

func parseBins(s string) ([]int, error) {
	var bins []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad bin count %q", part)
		}
		bins = append(bins, v)
	}
	return bins, nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "traceanalyzer: %v\n", err)
	os.Exit(1)
}

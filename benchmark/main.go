// Command benchmark is the repository's benchmark: seven named workloads,
// four bounded end-to-end metrics plus the failure count, per-layer probes,
// and a traced run. README.md in this directory is the manual.
//
//	bash benchmark/run.sh -all -seed 1              every workload, end-to-end metrics
//	bash benchmark/run.sh -all -seed 1 -trace 1     every workload, per-layer metrics and span files
//	bash benchmark/run.sh -workload nc_burst        one workload; last line is the driver's JSON
//	bash benchmark/run.sh compare old.json new.json apply the regression bounds to two result files
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "manifest":
			m := buildManifest()
			if err := m.validate(); err != nil {
				fatal(fmt.Errorf("the tables break the driver's contract: %w", err))
			}
			os.Stdout.Write(marshalManifest(m))
			return
		}
	}
	var (
		name    = flag.String("workload", "", "run this one workload in this process and print the driver's result line")
		all     = flag.Bool("all", false, "run every workload, each in a fresh child process, and print every metric")
		seed    = flag.Uint64("seed", 1, "seed of the generated inputs")
		seconds = flag.Float64("seconds", runSeconds, "how long one run measures")
		trace   = flag.Int("trace", 0, "1 runs the traced set: per-layer metrics and span files instead of end-to-end metrics")
		smoke   = flag.Bool("smoke", false, "1/100 of the full size: a check that everything runs, not a measurement")
		repeat  = flag.Int("repeat", 1, "with -all: runs per workload, so that compare sees a run-to-run spread")
		outDir  = flag.String("outdir", filepath.Join("benchmark", "out"), "where span files, scratch directories and the result file go")
		out     = flag.String("o", "", "with -all: result file (default <outdir>/results_seed<seed>[_traced].json)")
		record  = flag.String("record", "", "with -workload: also write the full run record to this file")
	)
	flag.Parse()
	if flag.NArg() > 0 || (*name == "") == !*all || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: benchmark (-all | -workload <name>) [-seed n] [-seconds s] [-trace 0|1] [-smoke]")
		fmt.Fprintln(os.Stderr, "       benchmark compare <old.json> <new.json>")
		os.Exit(2)
	}
	if *smoke {
		*seconds = min(*seconds, 0.5) // a check that everything runs, not a measurement
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	if *all {
		os.Exit(runAll(*seed, *seconds, *trace == 1, *smoke, *repeat, *outDir, *out))
	}

	w, ok := findWorkload(*name)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	cfg := runConfig{workload: w, seed: *seed, seconds: *seconds, traced: *trace == 1, smoke: *smoke, outDir: *outDir}
	if *smoke {
		cfg.probeDiv = 10
	}
	res, err := run(cfg)
	if err != nil {
		fatal(err)
	}
	for _, n := range res.Notes {
		fmt.Fprintln(os.Stderr, "benchmark:", n)
	}
	if *record != "" {
		data, _ := json.Marshal(res)
		if err := os.WriteFile(*record, data, 0o644); err != nil {
			fatal(err)
		}
	}
	os.Stdout.Write(append(resultLine(res), '\n'))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// resultLine renders the one JSON object the driver reads: the end-to-end
// metrics of an untraced run, the per-layer metrics of a traced one.
func resultLine(res *runResult) []byte {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if res.Traced {
		defs = perLayer
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		metrics[d.Name] = value{res.Metrics[d.Name], d.Unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, max(res.Attempted, 1), res.Failed, metrics})
	return line
}

// runAll runs every workload one after another, each in a fresh child
// process of this binary, so that peak memory, the goroutine census and
// every pool are the workload's own. It prints each metric by name with
// its unit and writes the result file.
func runAll(seed uint64, seconds float64, traced, smoke bool, repeat int, outDir, out string) int {
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	rs := &resultSet{Schema: resultSchema, Env: readEnv(seed), Traced: traced}
	status := 0
	for _, w := range workloads {
		for i := 0; i < repeat; i++ {
			recordPath := filepath.Join(outDir, fmt.Sprintf("run_%s.json", w.name))
			args := []string{"-workload", w.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
				"-outdir", outDir, "-record", recordPath}
			if traced {
				args = append(args, "-trace", "1")
			}
			if smoke {
				args = append(args, "-smoke")
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Printf("== %s: run failed: %v\n", w.name, err)
				status = 1
				continue
			}
			data, err := os.ReadFile(recordPath)
			os.Remove(recordPath)
			var res runResult
			if err == nil {
				err = json.Unmarshal(data, &res)
			}
			if err != nil {
				fmt.Printf("== %s: no run record: %v\n", w.name, err)
				status = 1
				continue
			}
			rs.Runs = append(rs.Runs, &res)
			printRun(&res)
			if !res.Correct {
				status = 1
			}
		}
	}
	if out == "" {
		suffix := ""
		if traced {
			suffix = "_traced"
		}
		out = filepath.Join(outDir, fmt.Sprintf("results_seed%d%s.json", seed, suffix))
	}
	if err := rs.write(out); err != nil {
		fatal(err)
	}
	fmt.Printf("result file: %s\n", out)
	return status
}

// printRun prints one run's metrics by name with their units.
func printRun(r *runResult) {
	verdict := "correct"
	if !r.Correct {
		verdict = "INCORRECT: " + strings.Join(r.Notes, "; ")
	}
	if r.Noisy {
		verdict += ", noisy (calibration drifted)"
	}
	fmt.Printf("== %s (op: %s), seed %d, %.1f s: %s\n", r.Workload, r.Op, r.Seed, r.WallS, verdict)
	row := func(name, unit, detail string) {
		fmt.Printf("  %-36s %16.4f %-6s %s\n", name, r.Metrics[name], unit, detail)
	}
	if !r.Traced {
		for _, d := range endToEnd {
			detail := ""
			switch d.Name {
			case "throughput_ops_s":
				detail = fmt.Sprintf("upper quartile of %d reps, median %.0f, lower quartile %.0f", r.Throughput.N, r.Throughput.Median, r.Throughput.Q1)
			case "latency_p50_us":
				detail = fmt.Sprintf("lower quartile of %d batch medians, %d samples, pooled p50 %.2f us", r.Latency.Batches.N, r.Latency.N, r.Latency.P50)
				if r.Latency.Highest != "" {
					detail += fmt.Sprintf(", %s %.2f us", r.Latency.Highest, r.Latency.Percentiles[r.Latency.Highest])
				}
			case "setup_s":
				detail = fmt.Sprintf("median of %d set-ups", len(r.SetupS))
			}
			row(d.Name, d.Unit, detail)
		}
		row("fail_ratio", "ratio", fmt.Sprintf("ops_attempted %d, ops_failed %d", r.Attempted, r.Failed))
		return
	}
	for _, d := range perLayer {
		row(d.Name, d.Unit, "")
	}
	names := make([]string, 0, len(r.SpanTotals))
	for n := range r.SpanTotals {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		t := r.SpanTotals[n]
		fmt.Printf("  span %-31s %10d spans, total %12.3f ms, self %12.3f ms\n", n, t.Count, float64(t.TotalNs)/1e6, float64(t.SelfNs)/1e6)
	}
	fmt.Printf("  span file: %s\n", r.TraceFile)
}

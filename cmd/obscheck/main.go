// Command obscheck validates a Chrome trace_event JSON file produced by
// the observability layer (obs.WriteTrace / the -trace-out flags). It
// checks the structural invariants a trace viewer relies on — a
// traceEvents array whose records carry a name, a known phase, and
// non-negative timestamps — and exits non-zero on the first violation, so
// CI can smoke-test trace production without a browser.
//
// With -metrics it instead validates an OpenMetrics text exposition (a
// matchd /metrics scrape — the argument may be a file or an http:// URL):
// every sample must belong to a declared family, counter samples must end
// in _total, histogram buckets must cumulate to a le="+Inf" bucket equal
// to the _count sample, and the document must terminate with # EOF.
//
// Usage:
//
//	obscheck trace.json
//	obscheck -min-events 10 trace.json
//	obscheck -metrics http://127.0.0.1:7601/metrics
//	obscheck -metrics metrics.txt
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// event mirrors the subset of the trace_event record schema obscheck
// validates. Unknown fields are ignored (the format is open-ended).
type event struct {
	Name string   `json:"name"`
	Ph   string   `json:"ph"`
	Ts   *float64 `json:"ts"`
	Dur  float64  `json:"dur"`
	Pid  *int     `json:"pid"`
	Tid  *int     `json:"tid"`
	S    string   `json:"s"`
}

// knownPhases are the trace_event phase codes obs emits (plus the common
// duration pair for forward compatibility).
var knownPhases = map[string]bool{
	"X": true, // complete span
	"i": true, // instant
	"M": true, // metadata
	"B": true, // duration begin
	"E": true, // duration end
	"C": true, // counter
}

func main() {
	minEvents := flag.Int("min-events", 1, "fail unless the trace holds at least this many non-metadata events")
	metricsMode := flag.Bool("metrics", false, "validate an OpenMetrics text exposition (file or http:// URL) instead of a Chrome trace")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: obscheck [-min-events N] trace.json | obscheck -metrics URL-or-file")
		os.Exit(2)
	}
	path := flag.Arg(0)

	if *metricsMode {
		if err := checkMetrics(path); err != nil {
			fatal(err)
		}
		return
	}

	data, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	var doc struct {
		TraceEvents     []event `json:"traceEvents"`
		DisplayTimeUnit string  `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		fatal(fmt.Errorf("%s: not valid JSON: %w", path, err))
	}
	if doc.TraceEvents == nil {
		fatal(fmt.Errorf("%s: no traceEvents array", path))
	}

	spans, instants, metadata := 0, 0, 0
	procs := map[int]bool{}
	named := map[int]bool{}
	for i, e := range doc.TraceEvents {
		where := func(msg string, args ...any) error {
			return fmt.Errorf("%s: traceEvents[%d] (%q): %s", path, i, e.Name, fmt.Sprintf(msg, args...))
		}
		if e.Name == "" {
			fatal(where("missing name"))
		}
		if !knownPhases[e.Ph] {
			fatal(where("unknown phase %q", e.Ph))
		}
		if e.Pid == nil {
			fatal(where("missing pid"))
		}
		procs[*e.Pid] = true
		switch e.Ph {
		case "M":
			metadata++
			if e.Name == "process_name" {
				named[*e.Pid] = true
			}
			continue
		case "X":
			spans++
			if e.Dur < 0 {
				fatal(where("negative duration %v", e.Dur))
			}
		case "i":
			instants++
			if e.S != "" && e.S != "t" && e.S != "p" && e.S != "g" {
				fatal(where("bad instant scope %q", e.S))
			}
		}
		if e.Ts == nil {
			fatal(where("missing ts"))
		}
		if *e.Ts < 0 {
			fatal(where("negative ts %v", *e.Ts))
		}
		if e.Tid == nil {
			fatal(where("missing tid"))
		}
	}
	for pid := range procs {
		if !named[pid] {
			fatal(fmt.Errorf("%s: pid %d has events but no process_name metadata", path, pid))
		}
	}
	if got := spans + instants; got < *minEvents {
		fatal(fmt.Errorf("%s: %d events (%d spans, %d instants), want >= %d", path, got, spans, instants, *minEvents))
	}

	fmt.Printf("%s: ok — %d processes, %d spans, %d instants, %d metadata records\n",
		path, len(procs), spans, instants, metadata)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "obscheck: %v\n", err)
	os.Exit(1)
}

// Command tracegen emits the synthetic DUMPI traces of the sixteen
// Table II applications, and renders Table II itself.
//
// Usage:
//
//	tracegen -table
//	tracegen -out traces/ [-app "BoxLib CNS"] [-scale 100]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/trace"
	"repro/internal/tracegen"
)

func main() {
	var (
		out   = flag.String("out", "", "directory to write DUMPI traces into (one subdirectory per app)")
		app   = flag.String("app", "", "generate only this application (default: all)")
		scale = flag.Int("scale", 100, "iteration scale percentage")
		table = flag.Bool("table", false, "print Table II and exit")
	)
	flag.Parse()

	if *table {
		fmt.Print(tracegen.TableII())
		return
	}
	if *out == "" {
		fmt.Fprintln(os.Stderr, "tracegen: -out or -table required")
		flag.Usage()
		os.Exit(2)
	}

	apps := tracegen.Apps()
	if *app != "" {
		a, ok := tracegen.ByName(*app)
		if !ok {
			fmt.Fprintf(os.Stderr, "tracegen: unknown application %q\n", *app)
			os.Exit(2)
		}
		apps = []tracegen.App{a}
	}

	cfg := tracegen.Config{Scale: *scale}
	for _, a := range apps {
		tr := a.Generate(cfg)
		dir := filepath.Join(*out, trace.SanitizeName(a.Name))
		if err := trace.WriteDir(dir, tr); err != nil {
			fmt.Fprintf(os.Stderr, "tracegen: %s: %v\n", a.Name, err)
			os.Exit(1)
		}
		fmt.Printf("%-18s %5d ranks %8d events -> %s\n", a.Name, tr.NumRanks(), tr.NumEvents(), dir)
	}
}

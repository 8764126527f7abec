// Command replay executes an application trace over the live mini-MPI
// stack: every traced operation becomes a real Isend/Irecv/Waitall/Barrier
// and flows through the selected matching engine — the end-to-end
// counterpart of the analyzer's trace-timeline emulation.
//
// With -transport tcp|shm|hybrid each trace rank becomes its own OS
// process: the command re-executes itself once per rank (spawning a small
// coordinator for rank/address exchange), and every process replays its one
// rank of the same deterministic trace — over sockets, shared-memory rings,
// or the locality-routed mix of both.
//
// Usage:
//
//	replay -app "BoxLib CNS" -engine offload -scale 25
//	replay -dir traces/BoxLib_CNS -app "BoxLib CNS"
//	replay -app AMG -scale 10 -transport tcp
//	replay -app AMG -scale 10 -transport shm
//	replay -app AMG -scale 10 -transport hybrid -sim-hosts 2
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/daemon"
	"repro/internal/obs"
	"repro/internal/rdma/netfabric"
	"repro/internal/replay"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

// exit reports err and exits: 2 for a usage error (the message names the
// offending flag), 1 when the flags were fine and the run was not.
func exit(code int, err error) {
	fmt.Fprintf(os.Stderr, "replay: %v\n", err)
	os.Exit(code)
}

func main() {
	var (
		appName = flag.String("app", "AMG", "application name (Table II)")
		dir     = flag.String("dir", "", "DUMPI trace directory (default: synthetic generator)")
		scale   = flag.Int("scale", 25, "synthetic generation scale percentage")
		cf      = daemon.RegisterFlags(flag.CommandLine, 256, "offload", "replay")
	)
	for name, text := range map[string]string{
		"ranks":  "expected world size (0 = the trace's own rank count; a mismatch is an error)",
		"daemon": "submit the replay to a matchd control address instead of running locally",
	} {
		flag.Lookup(name).Usage = text
	}
	flag.Parse()

	spec := cf.Spec("replay")
	spec.App, spec.Scale = *appName, *scale
	if err := cf.Validate(&spec, "app", "scale"); err != nil {
		exit(2, err)
	}

	// Daemon mode: hand the replay to a running matchd and wait. The
	// daemon regenerates the synthetic trace itself, so only generator
	// inputs travel (Validate rejects -dir), and derives the rank count
	// when -ranks is 0.
	if cf.Daemon != "" {
		st, err := cf.Submit(spec)
		if err != nil {
			exit(1, err)
		}
		fmt.Printf("replayed %s over %s via daemon: %d sends, matched %d (%d unexpected)\n",
			*appName, st.Transport, st.Messages, st.Matched, st.Unexpected)
		return
	}

	var tr *trace.Trace
	if *dir != "" {
		var err error
		tr, err = trace.Load(*dir, *appName)
		if err != nil {
			exit(1, err)
		}
	} else {
		app, ok := tracegen.ByName(*appName)
		if !ok {
			exit(1, fmt.Errorf("unknown application %q", *appName))
		}
		tr = app.Generate(tracegen.Config{Scale: *scale})
	}
	n := tr.NumRanks()
	if cf.Ranks > 0 && cf.Ranks != n {
		exit(2, fmt.Errorf("-ranks %d but the trace has %d ranks", cf.Ranks, n))
	}

	// Launcher mode: a net transport with no -rank spawns the whole job —
	// one process per trace rank plus the coordinator — and waits. The
	// children regenerate the identical trace (the synthetic generators are
	// deterministic and -dir traces are shared files).
	if cf.Launcher() {
		fmt.Printf("launching %d %s rank processes for %s (%d cores)\n",
			n, cf.Transport, tr.App, runtime.NumCPU())
		if err := netfabric.Launch(n); err != nil {
			exit(1, err)
		}
		return
	}

	// A local replay keeps the replay package's matcher shape (4096
	// receives, 8-wide blocks); a submitted one takes the daemon's.
	loc := cf.Local()
	loc.Trace = tr
	loc.Matcher = replay.MatcherConfig()
	spec.Ranks, spec.MaxReceives = n, loc.Matcher.MaxReceives

	if cf.Transport == "inproc" {
		fmt.Printf("replaying %s (%d ranks, %d events) on the %v engine...\n",
			tr.App, n, tr.NumEvents(), cf.EngineKind())
	} else {
		fmt.Printf("replaying %s rank %d/%d (%d events) on the %v engine over %s...\n",
			tr.App, cf.Rank, n, tr.NumEvents(), cf.EngineKind(), cf.Transport)
	}
	res, err := daemon.Run(spec, loc)
	if err != nil {
		exit(1, err)
	}
	fmt.Printf("replayed %d ranks: %d sends, %d recvs, %d collectives in %v\n",
		res.Ranks, res.Messages, res.Recvs, res.Collectives, res.Elapsed.Round(time.Millisecond))
	var frames, coalesced uint64
	for _, s := range res.Sinks {
		h := s.Sink.Hist(obs.HistCoalesceWidth)
		frames += h.Count
		coalesced += h.Sum
	}
	if frames > 0 {
		fmt.Printf("eager coalescing: %d messages in %d frames (mean width %.1f)\n",
			coalesced, frames, float64(coalesced)/float64(frames))
	}
	if res.Matcher.Messages > 0 {
		m := res.Matcher
		fmt.Printf("offloaded matching: %d msgs in %d blocks; %d optimistic, %d conflicts (%d fast, %d slow), %d unexpected\n",
			m.Messages, m.Blocks, m.Optimistic, m.Conflicts, m.FastPath, m.SlowPath, m.Unexpected)
	}
	if loc.Faults.Active() {
		fmt.Printf("faults: %v\n", res.Faults)
		r := res.Reliability
		fmt.Printf("repair: sent=%d retransmits=%d dups-dropped=%d out-of-order=%d sacks=%d rnr-retries=%d\n",
			r.Sent, r.Retransmits, r.DupDropped, r.OutOfOrder, r.Sacks, r.SendRNR)
	}
	if err := cf.WriteObs(res.Sinks); err != nil {
		exit(1, err)
	}
}

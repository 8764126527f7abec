// Command msgrate regenerates Figure 8: the single-process message-rate
// ping-pong benchmark across the five configurations — Optimistic-DPA in
// the no-conflict (NC), with-conflict fast-path (WC-FP), and with-conflict
// slow-path (WC-SP) settings, plus the MPI-CPU and RDMA-CPU baselines.
//
// With -ranks N it instead runs the multi-rank ring message-rate workload,
// and with -transport tcp|udp|shm|hybrid the N ranks become N OS processes
// over real sockets or shared-memory rings: the command re-executes itself
// once per rank (spawning a small coordinator for rank/address exchange),
// so one invocation measures true multi-core scaling:
//
//	msgrate -transport tcp -ranks 4
//	msgrate -transport udp -ranks 2 -faults seed=7,drop=0.05
//	msgrate -transport shm -ranks 4
//	msgrate -transport hybrid -ranks 4 -sim-hosts 2
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/obs"
	"repro/internal/rdma/netfabric"
)

// exit reports err and exits: 2 for a usage error (the message names the
// offending flag), 1 when the flags were fine and the run was not.
func exit(code int, err error) {
	fmt.Fprintf(os.Stderr, "msgrate: %v\n", err)
	os.Exit(code)
}

// writeProfile dumps a named runtime profile (mutex, block) to path.
func writeProfile(name, path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "msgrate: %v\n", err)
		return
	}
	defer f.Close()
	if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
		fmt.Fprintf(os.Stderr, "msgrate: %v\n", err)
	}
}

func main() {
	var (
		k          = flag.Int("k", 100, "messages per sequence (paper: 100)")
		reps       = flag.Int("reps", 500, "sequence repetitions (paper: 500)")
		payload    = flag.Int("payload", 8, "eager payload bytes")
		threads    = flag.Int("threads", 32, "DPA threads (paper: 32)")
		modeled    = flag.Bool("modeled", false, "report cost-model rates (core-count independent) instead of wall clock")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		mutexprof  = flag.String("mutexprofile", "", "write a mutex contention profile to this file on exit")
		blockprof  = flag.String("blockprofile", "", "write a goroutine blocking profile to this file on exit")
		cf         = daemon.RegisterFlags(flag.CommandLine, 2048, "host", "msgrate")
	)
	for name, text := range map[string]string{
		"inflight": "in-flight matching blocks K, 1..8 (1 = paper's serial stream)",
		"faults":   "deterministic fault plan, e.g. seed=1,drop=0.05,dup=0.02,delay=0.01,rnr=0.01",
		"ranks":    "ring-mode world size (0 = classic two-rank Figure 8; requires >= 1 with a non-inproc transport)",
		"engine":   "ring-mode matching engine: host | offload | raw",
		"daemon":   "submit the ring run to a matchd control address instead of running locally",
	} {
		flag.Lookup(name).Usage = text
	}
	flag.Parse()

	spec := cf.Spec("ring")
	spec.K, spec.Reps, spec.PayloadBytes, spec.Threads = *k, *reps, *payload, *threads
	if err := cf.Validate(&spec, "k", "reps", "payload", "threads"); err != nil {
		exit(2, err)
	}
	// A zero would silently become the wire format's default.
	switch {
	case *k < 1:
		exit(2, fmt.Errorf("-k %d must be >= 1", *k))
	case *reps < 1:
		exit(2, fmt.Errorf("-reps %d must be >= 1", *reps))
	}

	// Daemon mode: hand the ring workload to a running matchd and wait.
	if cf.Daemon != "" {
		st, err := cf.Submit(spec)
		if err != nil {
			exit(1, err)
		}
		fmt.Printf("%-22s %12.0f msg/s  (%d ranks, %d msgs, matched %d)\n",
			"ring-"+st.Transport+"-daemon", st.MsgPerSec, st.Ranks, st.Messages, st.Matched)
		return
	}
	switch {
	case cf.Transport != "inproc" && cf.Ranks < 1:
		exit(2, fmt.Errorf("-transport %s needs -ranks >= 1", cf.Transport))
	case cf.Transport != "inproc" && *modeled:
		exit(2, fmt.Errorf("-modeled rates are core-count independent; they only make sense with -transport inproc"))
	}
	loc := cf.Local()

	// Launcher mode: a net transport with no -rank spawns the whole job —
	// one process per rank plus the coordinator — and waits.
	if cf.Launcher() {
		fmt.Printf("launching %d %s rank processes (%d cores)\n", cf.Ranks, cf.Transport, runtime.NumCPU())
		if err := netfabric.Launch(cf.Ranks); err != nil {
			exit(1, err)
		}
		return
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			exit(1, err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			exit(1, err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "msgrate: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // surface only live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "msgrate: %v\n", err)
			}
		}()
	}
	if *mutexprof != "" {
		runtime.SetMutexProfileFraction(1)
		defer writeProfile("mutex", *mutexprof)
	}
	if *blockprof != "" {
		runtime.SetBlockProfileRate(1)
		defer writeProfile("block", *blockprof)
	}

	// Ring mode: -ranks N runs the multi-rank ring workload — in one
	// process over the in-process fabric, or as this process's rank of an
	// out-of-process job over sockets.
	if cf.Ranks > 0 {
		res, err := daemon.Run(spec, loc)
		if err != nil {
			exit(1, err)
		}
		label := fmt.Sprintf("ring-%s-%dx-%s", cf.Transport, cf.Ranks, cf.Engine)
		fmt.Printf("%-22s %12.0f msg/s  (%d ranks, %d msgs in %v)\n",
			label, res.MsgPerSec, res.Ranks, res.Messages, res.Elapsed.Round(time.Millisecond))
		if loc.Faults.Active() || cf.Transport == "udp" {
			fmt.Printf("%-22s %12s faults: %v\n", "", "", res.Faults)
			fmt.Printf("%-22s %12s repair: retransmits=%d dups-dropped=%d out-of-order=%d sacks=%d\n",
				"", "", res.Reliability.Retransmits, res.Reliability.DupDropped,
				res.Reliability.OutOfOrder, res.Reliability.Sacks)
		}
		if err := cf.WriteObs(res.Sinks); err != nil {
			exit(1, err)
		}
		return
	}

	if *modeled {
		cm := bench.DefaultCostModel()
		cm.Threads = *threads
		cm.InFlight = cf.InFlight
		fmt.Printf("Figure 8 (modeled) — pipeline-bottleneck rates from counted engine work, %d DPA threads, %d in-flight block(s)",
			*threads, cf.InFlight)
		if cf.CoalesceBytes > 0 || cf.CoalesceMsgs > 1 {
			fmt.Printf(", coalescing %dB/%d msgs", cf.CoalesceBytes, cf.CoalesceMsgs)
		}
		fmt.Print("\n\n")
		rates, err := bench.RunModeledFigure8(cm, *k, min(*reps, 50), cf.CoalesceBytes, cf.CoalesceMsgs)
		if err != nil {
			exit(1, err)
		}
		for _, r := range rates {
			fmt.Println(r)
		}
		return
	}

	fmt.Printf("Figure 8 — message rate: k=%d, reps=%d, payload=%dB, %d DPA threads, %d in-flight block(s)\n",
		*k, *reps, *payload, *threads, cf.InFlight)
	if cf.CoalesceBytes > 0 || cf.CoalesceMsgs > 1 {
		fmt.Printf("eager coalescing: %d bytes / %d msgs per frame\n", cf.CoalesceBytes, cf.CoalesceMsgs)
	}
	if loc.Faults.Active() {
		fmt.Printf("fault plan: %s\n", cf.Faults)
	}
	fmt.Println()

	var sinks []obs.Named
	for _, cfg := range bench.Figure8Scenarios() {
		cfg.K = *k
		cfg.Reps = *reps
		cfg.PayloadBytes = *payload
		cfg.Threads = *threads
		cfg.InFlight = cf.InFlight
		if cf.Bins != 2048 {
			if cfg.Matcher == (core.Config{}) {
				cfg.Matcher = bench.PaperMatcherConfig()
			}
			cfg.Matcher.Bins = cf.Bins
		}
		cfg.CoalesceBytes = cf.CoalesceBytes
		cfg.CoalesceMsgs = cf.CoalesceMsgs
		cfg.Faults = loc.Faults
		cfg.Obs = loc.Obs
		res, err := bench.RunMsgRate(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "msgrate: %s: %v\n", cfg.Label, err)
			os.Exit(1)
		}
		fmt.Println(res)
		if res.BatchWidth > 0 {
			fmt.Printf("%-22s %12s mean batch width %.1f msgs/frame\n", "", "", res.BatchWidth)
		}
		if st := res.MatchStats; st.Messages > 0 {
			fmt.Printf("%-22s %12s blocks=%d optimistic=%d conflicts=%d fast=%d slow=%d unexpected=%d\n",
				"", "", st.Blocks, st.Optimistic, st.Conflicts, st.FastPath, st.SlowPath, st.Unexpected)
		}
		if loc.Faults.Active() {
			fmt.Printf("%-22s %12s faults: %v\n", "", "", res.Faults)
			fmt.Printf("%-22s %12s repair: retransmits=%d dups-dropped=%d out-of-order=%d sacks=%d rnr-retries=%d\n",
				"", "", res.Reliability.Retransmits, res.Reliability.DupDropped,
				res.Reliability.OutOfOrder, res.Reliability.Sacks, res.Reliability.SendRNR)
		}
		sinks = append(sinks, res.Sinks...)
	}

	if err := cf.WriteObs(sinks); err != nil {
		exit(1, err)
	}
}

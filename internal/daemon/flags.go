package daemon

import (
	"flag"
	"fmt"
	"slices"
	"time"

	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/rdma"
)

// Flags is the flag set cmd/msgrate and cmd/replay share: everything that
// says which job to run and where, registered and validated once. A command
// adds its own flags (msgrate -k, replay -app, …) next to it on the same
// FlagSet and fills the matching spec fields itself.
type Flags struct {
	Transport                   string
	Ranks, Rank                 int
	Coord                       string
	SimHosts                    int
	Faults                      string
	CoalesceBytes, CoalesceMsgs int
	InFlight, Bins              int
	Engine, Daemon, Tenant      string
	TraceOut, StatsJSON         string

	fs   *flag.FlagSet
	plan rdma.FaultPlan // Faults, parsed by Validate
}

// sentFlags are the shared flags whose values travel in the spec; the rest
// are local-only, and a -daemon submission rejects them.
var sentFlags = map[string]bool{
	"daemon": true, "tenant": true, "engine": true, "transport": true,
	"ranks": true, "bins": true, "inflight": true,
}

// RegisterFlags declares the shared flags on fs with the calling command's
// defaults for -bins, -engine and -tenant. Usage strings are the common
// wording; a command rewords one through fs.Lookup(name).Usage.
func RegisterFlags(fs *flag.FlagSet, bins int, engine, tenant string) *Flags {
	f := &Flags{fs: fs}
	fs.StringVar(&f.Transport, "transport", "inproc", "fabric transport: inproc | tcp | udp | shm | hybrid")
	fs.IntVar(&f.Ranks, "ranks", 0, "world size")
	fs.IntVar(&f.Rank, "rank", -1, "this process's rank (set by the launcher; -1 = launch all ranks)")
	fs.StringVar(&f.Coord, "coord", "", "coordinator address for rank/address exchange (set by the launcher)")
	fs.IntVar(&f.SimHosts, "sim-hosts", 0, "hybrid only: spread ranks round-robin over N simulated hosts (0 = real hostname)")
	fs.StringVar(&f.Faults, "faults", "", "deterministic fault plan, e.g. seed=1,drop=0.05,dup=0.02")
	fs.IntVar(&f.CoalesceBytes, "coalesce-bytes", 0, "eager-coalescing byte threshold (0 = off)")
	fs.IntVar(&f.CoalesceMsgs, "coalesce-msgs", 0, "eager-coalescing message-count threshold (0 = off, 1 = off)")
	fs.IntVar(&f.InFlight, "inflight", 1, "in-flight matching blocks K, 1..8")
	fs.IntVar(&f.Bins, "bins", bins, "hash-table bins (power of two)")
	fs.StringVar(&f.Engine, "engine", engine, "matching engine: offload | host | raw")
	fs.StringVar(&f.Daemon, "daemon", "", "submit the job to a matchd control address instead of running locally")
	fs.StringVar(&f.Tenant, "tenant", tenant, "tenant name for -daemon submissions")
	fs.StringVar(&f.TraceOut, "trace-out", "", "write a Chrome trace_event JSON (chrome://tracing, Perfetto) to this file")
	fs.StringVar(&f.StatsJSON, "stats-json", "", "write observability counter/histogram snapshots as JSON to this file")
	return f
}

// Validate checks the parsed flags and the spec built from them (Spec plus
// the command's own fields); any error is a usage error (exit 2) whose
// message names the offending flag. sent lists the command's own flags
// that travel in the spec — with -daemon every other flag the user set is
// rejected, because a matchd job cannot honour it.
func (f *Flags) Validate(spec *JobSpec, sent ...string) error {
	if err := spec.checkShape(); err != nil {
		return fmt.Errorf("-%v", err)
	}
	plan, err := rdma.ParseFaultPlan(f.Faults)
	if err != nil {
		return fmt.Errorf("-faults: %v", err)
	}
	f.plan = plan
	if f.Daemon != "" {
		f.fs.Visit(func(fl *flag.Flag) {
			if err == nil && !sentFlags[fl.Name] && !slices.Contains(sent, fl.Name) {
				err = fmt.Errorf("-%s is local-only: a -daemon job cannot honour it", fl.Name)
			}
		})
		if err == nil && lossy(f.Transport) {
			err = fmt.Errorf("-transport %s is lossy; -daemon hosts inproc, tcp, shm, and hybrid", f.Transport)
		}
		return err
	}
	inproc := f.Transport == "inproc"
	switch {
	case inproc && (f.Rank != -1 || f.Coord != ""):
		return fmt.Errorf("-rank/-coord are only meaningful with a non-inproc transport")
	case f.Rank < -1 || (f.Ranks > 0 && f.Rank >= f.Ranks):
		return fmt.Errorf("-rank %d outside [0,%d)", f.Rank, f.Ranks)
	case f.Rank >= 0 && f.Coord == "":
		return fmt.Errorf("-rank requires -coord (both are set by the launcher)")
	case f.Rank < 0 && f.Coord != "":
		return fmt.Errorf("-coord requires -rank")
	case !inproc && f.Transport != "udp" && f.Faults != "":
		return fmt.Errorf("-faults: %s models a reliable transport; lossy runs need -transport udp or -transport inproc", f.Transport)
	case f.SimHosts != 0 && f.Transport != "hybrid":
		return fmt.Errorf("-sim-hosts only applies to -transport hybrid")
	case f.SimHosts < 0:
		return fmt.Errorf("-sim-hosts %d must be >= 0", f.SimHosts)
	case f.CoalesceBytes < 0 || f.CoalesceMsgs < 0:
		return fmt.Errorf("-coalesce-bytes/-coalesce-msgs thresholds must be >= 0")
	}
	return nil
}

// Spec is the part of the job description the shared flags carry.
func (f *Flags) Spec(workload string) JobSpec {
	return JobSpec{
		Tenant: f.Tenant, Workload: workload, Engine: f.Engine, Transport: f.Transport,
		Ranks: f.Ranks, Bins: f.Bins, InFlight: f.InFlight,
	}
}

// EngineKind is the engine -engine names (after Validate).
func (f *Flags) EngineKind() mpi.EngineKind { return engineKinds[f.Engine] }

// Local is what the shared flags say about running the job here (after
// Validate, which parses the fault plan).
func (f *Flags) Local() Local {
	loc := Local{
		Rank: f.Rank, Coord: f.Coord, SimHosts: f.SimHosts, Faults: f.plan,
		CoalesceBytes: f.CoalesceBytes, CoalesceMsgs: f.CoalesceMsgs,
	}
	if f.TraceOut != "" {
		loc.Obs = loc.Obs.Tracing()
	}
	return loc
}

// Launcher reports whether this invocation names a net-transport job but
// no rank of it: the command then spawns the rank processes
// (netfabric.Launch) instead of running one.
func (f *Flags) Launcher() bool { return f.Transport != "inproc" && f.Rank < 0 }

// WriteObs writes the -trace-out and -stats-json files. One writer per job:
// the single in-process run, or rank 0 of a multi-process job (each process
// only has its own ranks' sinks).
func (f *Flags) WriteObs(sinks []obs.Named) error {
	if f.Rank > 0 {
		return nil
	}
	if f.TraceOut != "" {
		if err := obs.WriteTraceFile(f.TraceOut, sinks); err != nil {
			return err
		}
		fmt.Printf("wrote Chrome trace to %s\n", f.TraceOut)
	}
	if f.StatsJSON != "" {
		if err := obs.WriteJSONFile(f.StatsJSON, sinks); err != nil {
			return err
		}
		fmt.Printf("wrote observability snapshot to %s\n", f.StatsJSON)
	}
	return nil
}

// Submit sends the spec to the matchd at -daemon and waits for the job's
// terminal status; anything but "done" is an error.
func (f *Flags) Submit(spec JobSpec) (*JobStatus, error) {
	c, err := Dial(f.Daemon)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	st, err := c.Submit(spec)
	if err != nil {
		return nil, err
	}
	fmt.Printf("submitted %s to %s (tenant %s, %d ranks)\n", st.ID, f.Daemon, st.Tenant, st.Ranks)
	st, err = c.Wait(st.ID, 10*time.Minute)
	if err != nil {
		return nil, err
	}
	if st.State != "done" {
		return nil, fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	return st, nil
}

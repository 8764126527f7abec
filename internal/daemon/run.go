package daemon

import (
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/rdma"
	"repro/internal/rdma/netfabric"
	"repro/internal/replay"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

// This file is the one job path: a normalized JobSpec becomes mpi options,
// then worlds, then a ring or replay run that is quiesced and totalled.
// Daemon.runJob calls it for every hosted job; msgrate -ranks N and replay
// call Run. Whatever a spec cannot say travels beside it in a Local, so the
// wire format — the daemon's fuzzed trust boundary — stays as it is.

// Local is what the process running a job decides for itself. The zero
// value is a plain run: every rank in this process, no faults, no
// coalescing, no tracing, one window per ring sequence.
type Local struct {
	// Rank and Coord make this process one rank of a multi-process job over
	// a net transport (set by netfabric.Launch on each child); an empty
	// Coord hosts all ranks here, net transports over a loopback
	// coordinator.
	Rank  int
	Coord string
	// SimHosts spreads hybrid ranks round-robin over N simulated hosts
	// (0 = the real hostname).
	SimHosts int
	// Faults arms deterministic fault injection on the in-process fabric.
	Faults rdma.FaultPlan
	// CoalesceBytes arms sender-side eager coalescing.
	CoalesceBytes int
	// Obs configures the worlds' and transports' observability sinks.
	Obs obs.Options
	// Matcher is the matcher shape the spec's Bins, MaxReceives and
	// InFlight are applied to (zero = bench.PaperMatcherConfig).
	Matcher core.Config
	// Trace is the trace a replay job runs (a -dir trace); nil generates
	// the spec's App at its Scale.
	Trace *trace.Trace
	// Window bounds the receives a ring rank keeps posted per communicator
	// (the daemon's MaxPostedPerComm); 0 is one window per sequence.
	// OnExtraWindow is told of each window the bound adds
	// (bench.RingConfig).
	Window        int
	OnExtraWindow func()
}

// Result is a finished job as seen by the ranks this process hosted.
type Result struct {
	Ranks int
	// Messages is, for a ring, the whole job's data messages (ranks × K ×
	// reps — the timing window is barrier-aligned, so MsgPerSec is the
	// job's rate); for a replay, the sends the hosted ranks issued.
	Messages  int
	Elapsed   time.Duration
	MsgPerSec float64
	// Recvs and Collectives are replay counts.
	Recvs, Collectives int
	mpi.Totals
}

// worldOptions maps a normalized spec onto mpi world options.
func worldOptions(spec *JobSpec, loc Local) mpi.Options {
	return mpi.Options{
		Engine:        engineKinds[spec.Engine],
		Matcher:       specMatcher(spec, loc.Matcher),
		RecvDepth:     max(2*spec.K, 64),
		Faults:        loc.Faults, // NewWorld's fabric takes it; a net transport has no fault plan
		CoalesceBytes: loc.CoalesceBytes,
		Obs:           loc.Obs,
	}
}

// buildWorlds materializes the spec's world(s): one in-process world; or,
// over a net transport, this process's one rank of a launched job
// (loc.Coord set) or one world per rank, all hosted here over a loopback
// coordinator (netfabric.New blocks on the rendezvous barrier, so the ranks
// connect concurrently). The cleanup function removes any shm directory.
func buildWorlds(spec *JobSpec, loc Local) ([]*mpi.World, func(), error) {
	opts := worldOptions(spec, loc)
	cleanup := func() {}
	if spec.Transport == "inproc" {
		w, err := mpi.NewWorld(spec.Ranks, opts)
		if err != nil {
			return nil, cleanup, err
		}
		return []*mpi.World{w}, cleanup, nil
	}

	ranks, coord, shmDir := []int{loc.Rank}, loc.Coord, ""
	if coord == "" {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, cleanup, err
		}
		defer ln.Close()
		go netfabric.ServeCoordinator(ln, spec.Ranks)
		coord = ln.Addr().String()
		ranks = ranks[:0]
		for k := 0; k < spec.Ranks; k++ {
			ranks = append(ranks, k)
		}
		if spec.Transport == "shm" || spec.Transport == "hybrid" {
			if shmDir, err = os.MkdirTemp("", "matchd-shm-"); err != nil {
				return nil, cleanup, err
			}
			cleanup = func() { os.RemoveAll(shmDir) }
		}
	}

	worlds := make([]*mpi.World, len(ranks))
	errs := make([]error, len(ranks))
	var wg sync.WaitGroup
	for i, k := range ranks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := netfabric.Config{
				Network: spec.Transport, Rank: k, Ranks: spec.Ranks,
				Coord: coord, ShmDir: shmDir, Obs: loc.Obs,
			}
			if loc.SimHosts > 0 {
				cfg.Host = fmt.Sprintf("simhost-%d", k%loc.SimHosts)
			}
			tr, err := netfabric.New(cfg)
			if err != nil {
				errs[i] = err
				return
			}
			worlds[i], errs[i] = mpi.NewNetWorld(tr, opts)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			mpi.CloseWorlds(worlds)
			return nil, cleanup, err
		}
	}
	return worlds, cleanup, nil
}

// runWorlds drives the spec's workload over every rank the worlds host,
// then closes them and totals their statistics.
func runWorlds(spec *JobSpec, loc Local, worlds []*mpi.World) (*Result, error) {
	var res *Result
	if spec.Workload == "replay" {
		tr := loc.Trace
		if tr == nil {
			app, ok := tracegen.ByName(spec.App)
			if !ok {
				mpi.CloseWorlds(worlds)
				return nil, fmt.Errorf("unknown application %q", spec.App)
			}
			tr = app.Generate(tracegen.Config{Scale: spec.Scale})
		}
		r, err := replay.RunWorlds(tr, worlds)
		if err != nil {
			return nil, err
		}
		res = &Result{Ranks: r.Ranks, Messages: r.Sends, Recvs: r.Recvs,
			Collectives: r.Collectives, Elapsed: r.Elapsed, Totals: r.Totals}
	} else {
		r, err := bench.RunRing(worlds, bench.RingConfig{
			K: spec.K, Reps: spec.Reps, PayloadBytes: spec.PayloadBytes,
			Window: loc.Window, OnExtraWindow: loc.OnExtraWindow,
		})
		if err != nil {
			return nil, err
		}
		res = &Result{Ranks: r.Ranks, Messages: r.Messages, Elapsed: r.Elapsed, Totals: r.Totals}
	}
	if sec := res.Elapsed.Seconds(); sec > 0 {
		res.MsgPerSec = float64(res.Messages) / sec
	}
	return res, nil
}

// Run executes one job in this process, outside any daemon: the shape
// checks are the caller's (Flags.Validate), the spec is normalized here,
// and nothing is admitted or charged.
func Run(spec JobSpec, loc Local) (*Result, error) {
	spec.Normalize()
	worlds, cleanup, err := buildWorlds(&spec, loc)
	defer cleanup()
	if err != nil {
		return nil, err
	}
	defer mpi.ReleaseWorlds(worlds)
	return runWorlds(&spec, loc, worlds)
}

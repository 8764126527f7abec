package replay_test

import (
	"fmt"
	"net"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/match"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/rdma"
	"repro/internal/rdma/netfabric"
	"repro/internal/replay"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

// goldenSummary is the transport-independent fingerprint of a replay: the
// operation counts are fixed by the trace, and the matcher's message total
// is fixed by the communication pattern (every sent message matches exactly
// once, regardless of arrival order, duplication, or retransmission).
// Block/conflict/unexpected counts are timing-dependent and deliberately
// excluded.
type goldenSummary struct {
	Sends, Recvs, Collectives int
	MatchedMsgs               uint64
}

func summarize(results ...*replay.Result) goldenSummary {
	var s goldenSummary
	for _, r := range results {
		s.Sends += r.Sends
		s.Recvs += r.Recvs
		s.Collectives += r.Collectives
		s.MatchedMsgs += r.Matcher.Messages
	}
	return s
}

// checkCounters holds what the hosted ranks of one leg add up to against
// the matcher's quiesced-counter identities (core.EngineStats.CheckQuiesced):
// a counter some arrival path forgot fails the leg by name. The host engine
// runs no core matcher and passes with zeros.
func checkCounters(t *testing.T, leg string, results ...*replay.Result) {
	t.Helper()
	var st core.EngineStats
	var depth match.Stats
	for _, r := range results {
		st.Add(r.Matcher)
		for _, ns := range r.Sinks {
			depth.ArriveSearches += ns.Sink.Counters.Load(obs.CtrArriveSearches)
			depth.Unexpected += ns.Sink.Counters.Load(obs.CtrUnexpectedStored)
		}
	}
	if err := st.CheckQuiesced(depth, false); err != nil {
		t.Errorf("%s: %v", leg, err)
	}
}

func goldenOptions(kind mpi.EngineKind, inflight int) mpi.Options {
	opts := mpi.Options{Engine: kind, RecvDepth: 64, Matcher: replay.MatcherConfig()}
	opts.Matcher.InFlightBlocks = inflight
	return opts
}

// replayNet replays tr with one single-rank world per trace rank, all in
// this process, meshed over real sockets, and returns the aggregated
// results. It mirrors what the cmd/replay launcher does with N OS
// processes; in-process it is additionally -race-visible.
func replayNet(t *testing.T, tr *trace.Trace, network string, opts mpi.Options) goldenSummary {
	t.Helper()
	n := tr.NumRanks()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("coordinator listen: %v", err)
	}
	go netfabric.ServeCoordinator(ln, n)
	shmDir := ""
	if network == "shm" || network == "hybrid" {
		shmDir = t.TempDir()
	}

	results := make([]*replay.Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			ncfg := netfabric.Config{
				Network: network, Rank: k, Ranks: n,
				Coord: ln.Addr().String(), ShmDir: shmDir,
			}
			if network == "hybrid" {
				// Two simulated hosts: even ranks on one, odd on the
				// other, so the hybrid router exercises both legs.
				ncfg.Host = fmt.Sprintf("h%d", k%2)
			}
			trans, err := netfabric.New(ncfg)
			if err != nil {
				errs[k] = err
				return
			}
			w, err := mpi.NewNetWorld(trans, opts)
			if err != nil {
				errs[k] = err
				return
			}
			results[k], errs[k] = replay.RunWorlds(tr, []*mpi.World{w})
		}(k)
	}
	wg.Wait()
	ln.Close()
	for k, err := range errs {
		if err != nil {
			t.Fatalf("%s rank %d: %v", network, k, err)
		}
	}
	checkCounters(t, network, results...)
	return summarize(results...)
}

// TestGoldenCrossTransportEquivalence replays a fixed deterministic trace
// over the in-process fabric, TCP sockets, shared-memory rings, the hybrid
// shm/TCP router (two simulated hosts), and the in-process fabric again
// under a 5%-drop fault plan, across engines and in-flight block depths,
// and requires the matched results to be identical everywhere. The faulted
// legs must also show the repair sublayer actually working (the plan
// injected faults, retransmissions happened, and the result still matched
// the golden baseline).
func TestGoldenCrossTransportEquivalence(t *testing.T) {
	app, ok := tracegen.ByName("AMG")
	if !ok {
		t.Fatal("tracegen: AMG generator missing")
	}
	tr := app.Generate(tracegen.Config{Scale: 5})
	if tr.NumRanks() < 2 {
		t.Fatalf("trace has %d ranks, want >= 2", tr.NumRanks())
	}

	plan, err := rdma.ParseFaultPlan("seed=11,drop=0.05,dup=0.02")
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		engine   mpi.EngineKind
		inflight int
	}{
		{mpi.EngineHost, 1},
		{mpi.EngineOffload, 1},
		{mpi.EngineOffload, 4},
		{mpi.EngineOffload, 8},
	}

	var totalRetx, totalInjected uint64
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%v-k%d", tc.engine, tc.inflight), func(t *testing.T) {
			opts := goldenOptions(tc.engine, tc.inflight)

			w, err := mpi.NewWorld(tr.NumRanks(), opts)
			if err != nil {
				t.Fatal(err)
			}
			base, err := replay.RunWorlds(tr, []*mpi.World{w})
			if err != nil {
				t.Fatalf("inproc: %v", err)
			}
			golden := summarize(base)
			checkCounters(t, "inproc", base)
			if golden.Sends == 0 || golden.Recvs == 0 {
				t.Fatalf("degenerate golden baseline: %+v", golden)
			}

			tcp := replayNet(t, tr, "tcp", opts)
			if tcp != golden {
				t.Errorf("tcp diverged: got %+v, want %+v", tcp, golden)
			}

			shm := replayNet(t, tr, "shm", opts)
			if shm != golden {
				t.Errorf("shm diverged: got %+v, want %+v", shm, golden)
			}

			hybrid := replayNet(t, tr, "hybrid", opts)
			if hybrid != golden {
				t.Errorf("hybrid diverged: got %+v, want %+v", hybrid, golden)
			}

			faulted := opts
			faulted.Faults = plan
			fw, err := mpi.NewWorld(tr.NumRanks(), faulted)
			if err != nil {
				t.Fatal(err)
			}
			res, err := replay.RunWorlds(tr, []*mpi.World{fw})
			if err != nil {
				t.Fatalf("inproc+faults: %v", err)
			}
			if got := summarize(res); got != golden {
				t.Errorf("inproc+faults diverged: got %+v, want %+v", got, golden)
			}
			checkCounters(t, "inproc+faults", res)
			if res.Reliability.Sent == 0 {
				t.Error("inproc+faults reliability sublayer saw no traffic")
			}
			t.Logf("inproc+faults: %d retransmits of %d reliable sends; injected %v",
				res.Reliability.Retransmits, res.Reliability.Sent, res.Faults)
			totalRetx += res.Reliability.Retransmits
			totalInjected += res.Faults.Dropped + res.Faults.Duplicated
		})
	}
	// The schedule is seeded, so the plan injects faults on every run; how
	// many of them cost a retransmission depends on timing, but over all
	// four faulted legs at least one must have.
	if totalInjected == 0 {
		t.Error("the fault plan injected nothing across the faulted legs")
	}
	if totalRetx == 0 {
		t.Error("no retransmissions across any faulted leg: fault plan not reaching the reliability sublayer")
	}
}

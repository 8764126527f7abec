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
func replayNet(t *testing.T, tr *trace.Trace, network string, opts mpi.Options, faults rdma.FaultPlan) (goldenSummary, mpi.ReliabilitySnapshot) {
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
				Coord: ln.Addr().String(), Faults: faults, ShmDir: shmDir,
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
	var rel mpi.ReliabilitySnapshot
	for _, r := range results {
		rel.Sent += r.Reliability.Sent
		rel.Retransmits += r.Reliability.Retransmits
		rel.DupDropped += r.Reliability.DupDropped
		rel.OutOfOrder += r.Reliability.OutOfOrder
		rel.Sacks += r.Reliability.Sacks
	}
	return summarize(results...), rel
}

// TestGoldenCrossTransportEquivalence replays a fixed deterministic trace
// over the in-process fabric, TCP sockets, UDP sockets under a 5%-drop
// fault plan, shared-memory rings, and the hybrid shm/TCP router (two
// simulated hosts), across engines and in-flight block depths, and
// requires the matched results to be identical everywhere. The UDP legs
// must also show the repair sublayer actually working (retransmissions
// happened and the result still matched the golden baseline).
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

	var totalRetx uint64
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

			tcp, _ := replayNet(t, tr, "tcp", opts, rdma.FaultPlan{})
			if tcp != golden {
				t.Errorf("tcp diverged: got %+v, want %+v", tcp, golden)
			}

			shm, _ := replayNet(t, tr, "shm", opts, rdma.FaultPlan{})
			if shm != golden {
				t.Errorf("shm diverged: got %+v, want %+v", shm, golden)
			}

			hybrid, _ := replayNet(t, tr, "hybrid", opts, rdma.FaultPlan{})
			if hybrid != golden {
				t.Errorf("hybrid diverged: got %+v, want %+v", hybrid, golden)
			}

			udp, rel := replayNet(t, tr, "udp", opts, plan)
			if udp != golden {
				t.Errorf("udp+faults diverged: got %+v, want %+v", udp, golden)
			}
			totalRetx += rel.Retransmits
			if rel.Sent == 0 {
				t.Error("udp reliability sublayer saw no traffic")
			}
		})
	}
	// Drops are probabilistic per run; over all four UDP legs the 5% plan
	// must have forced at least one retransmission.
	if totalRetx == 0 {
		t.Error("no retransmissions across any UDP leg: fault plan not reaching the transport")
	}
}

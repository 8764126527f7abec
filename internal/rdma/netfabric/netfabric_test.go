package netfabric_test

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/rdma"
	"repro/internal/rdma/netfabric"
)

// startNetWorlds spins up a full out-of-process-shaped job inside one test
// process: a coordinator on a loopback listener and n transports + worlds,
// one per rank, created concurrently (New blocks on the rendezvous
// barrier, so sequential creation would deadlock).
func startNetWorlds(t *testing.T, network string, n int, opts mpi.Options, faults rdma.FaultPlan) []*mpi.World {
	return startNetWorldsCfg(t, network, n, opts, faults, nil)
}

// startNetWorldsCfg is startNetWorlds with a per-rank Config hook (hybrid
// tests use it to assign simulated hosts).
func startNetWorldsCfg(t *testing.T, network string, n int, opts mpi.Options, faults rdma.FaultPlan, mod func(rank int, cfg *netfabric.Config)) []*mpi.World {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("coordinator listen: %v", err)
	}
	go netfabric.ServeCoordinator(ln, n)

	shmDir := ""
	if network == "shm" || network == "hybrid" {
		shmDir = t.TempDir()
	}
	worlds := make([]*mpi.World, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			cfg := netfabric.Config{
				Network: network, Rank: k, Ranks: n,
				Coord: ln.Addr().String(), Faults: faults, ShmDir: shmDir,
			}
			if mod != nil {
				mod(k, &cfg)
			}
			tr, err := netfabric.New(cfg)
			if err != nil {
				errs[k] = err
				return
			}
			worlds[k], errs[k] = mpi.NewNetWorld(tr, opts)
		}(k)
	}
	wg.Wait()
	ln.Close()
	for k, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", k, err)
		}
	}
	t.Cleanup(func() {
		for _, w := range worlds {
			if w != nil {
				w.Close()
			}
		}
	})
	return worlds
}

// ringWorkload sends eager and rendezvous messages around the ring and
// verifies every payload byte, on every world concurrently.
func ringWorkload(t *testing.T, worlds []*mpi.World, reps, size int) {
	t.Helper()
	n := len(worlds)
	var wg sync.WaitGroup
	errCh := make(chan error, n)
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := worlds[r].LocalProcs()[0].World()
			next, prev := (r+1)%n, (r+n-1)%n
			for i := 0; i < reps; i++ {
				want := payload(prev, i, size)
				buf := make([]byte, size)
				rreq, err := c.Irecv(prev, i, buf)
				if err != nil {
					errCh <- fmt.Errorf("rank %d irecv rep %d: %v", r, i, err)
					return
				}
				if err := c.Send(next, i, payload(r, i, size)); err != nil {
					errCh <- fmt.Errorf("rank %d send rep %d: %v", r, i, err)
					return
				}
				st, err := rreq.Wait()
				if err != nil {
					errCh <- fmt.Errorf("rank %d recv rep %d: %v", r, i, err)
					return
				}
				if st.Count != size || !bytes.Equal(buf[:st.Count], want) {
					errCh <- fmt.Errorf("rank %d rep %d: payload mismatch (%d bytes)", r, i, st.Count)
					return
				}
			}
			errCh <- c.Barrier()
		}(r)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func payload(rank, rep, size int) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = byte(rank*31 + rep*7 + i)
	}
	return b
}

func TestTCPRingEagerAndRendezvous(t *testing.T) {
	opts := mpi.Options{EagerLimit: 256}
	worlds := startNetWorlds(t, "tcp", 3, opts, rdma.FaultPlan{})
	// Eager traffic (64 < EagerLimit), then rendezvous (8192 > EagerLimit,
	// exercising the frReadReq/frReadResp read path).
	ringWorkload(t, worlds, 20, 64)
	ringWorkload(t, worlds, 5, 8192)
}

func TestTCPOffloadEngine(t *testing.T) {
	opts := mpi.Options{Engine: mpi.EngineOffload, EagerLimit: 256}
	worlds := startNetWorlds(t, "tcp", 2, opts, rdma.FaultPlan{})
	ringWorkload(t, worlds, 10, 64)
}

func TestUDPRingWithFaults(t *testing.T) {
	faults := rdma.FaultPlan{Seed: 42}
	faults.Drop = 0.05
	faults.Duplicate = 0.02
	faults.Delay = 0.02
	opts := mpi.Options{EagerLimit: 256, RetxTimeout: time.Millisecond}
	worlds := startNetWorlds(t, "udp", 2, opts, faults)
	ringWorkload(t, worlds, 40, 64)
	ringWorkload(t, worlds, 4, 4096)

	var retx, injected uint64
	for _, w := range worlds {
		retx += w.ReliabilityStats().Retransmits
		fs := w.FaultStats()
		injected += fs.Dropped + fs.Duplicated + fs.Delayed
	}
	if injected == 0 {
		t.Fatalf("fault plan injected nothing (want drops/dups/delays at 5%%/2%%/2%%)")
	}
	if retx == 0 {
		t.Fatalf("no retransmissions despite %d injected faults", injected)
	}
}

func TestUDPLossless(t *testing.T) {
	// Loopback UDP with no injected faults should still complete (the
	// reliability layer is armed but mostly idle).
	worlds := startNetWorlds(t, "udp", 2, mpi.Options{EagerLimit: 256}, rdma.FaultPlan{})
	ringWorkload(t, worlds, 10, 64)
}

// fabricCounters sums the named counter across every world's fabric sink.
func fabricCounters(t *testing.T, worlds []*mpi.World, name string) uint64 {
	t.Helper()
	var total uint64
	for _, w := range worlds {
		for _, nd := range w.ObsSinks() {
			if nd.Name == "fabric" {
				total += nd.Sink.Counters.Snapshot()[name]
			}
		}
	}
	return total
}

func TestShmRingEagerAndRendezvous(t *testing.T) {
	opts := mpi.Options{EagerLimit: 256}
	worlds := startNetWorlds(t, "shm", 3, opts, rdma.FaultPlan{})
	// Eager traffic through the rings, then rendezvous out of the sender's
	// own buffer (8192 > EagerLimit: zero-round-trip direct reads, no READ RPC).
	ringWorkload(t, worlds, 20, 64)
	ringWorkload(t, worlds, 5, 8192)
	if got := fabricCounters(t, worlds, "shm_tx_frames"); got == 0 {
		t.Fatal("no frames staged into shm rings")
	}
	if got := fabricCounters(t, worlds, "shm_reads"); got == 0 {
		t.Fatal("rendezvous traffic produced no zero-round-trip direct reads")
	}
	if got := fabricCounters(t, worlds, "net_read_reqs"); got != 0 {
		t.Fatalf("pure shm world issued %d READ RPCs", got)
	}
}

func TestShmOffloadEngine(t *testing.T) {
	opts := mpi.Options{Engine: mpi.EngineOffload, EagerLimit: 256}
	worlds := startNetWorlds(t, "shm", 2, opts, rdma.FaultPlan{})
	ringWorkload(t, worlds, 10, 64)
}

func TestHybridTwoSimulatedHosts(t *testing.T) {
	// Ranks 0,1 on hostA and 2,3 on hostB: the ring 0→1→2→3→0 then carries
	// two same-host hops (shm) and two cross-host hops (TCP), so both legs
	// and both rendezvous read paths are load-bearing.
	opts := mpi.Options{EagerLimit: 256}
	hosts := func(rank int, cfg *netfabric.Config) {
		if rank < 2 {
			cfg.Host = "hostA"
		} else {
			cfg.Host = "hostB"
		}
	}
	worlds := startNetWorldsCfg(t, "hybrid", 4, opts, rdma.FaultPlan{}, hosts)
	ringWorkload(t, worlds, 20, 64)
	ringWorkload(t, worlds, 5, 8192)
	if got := fabricCounters(t, worlds, "shm_tx_frames"); got == 0 {
		t.Fatal("hybrid routed no same-host frames over shm")
	}
	if got := fabricCounters(t, worlds, "net_tx_frames"); got == 0 {
		t.Fatal("hybrid routed no cross-host frames over TCP")
	}
	if got := fabricCounters(t, worlds, "shm_reads"); got == 0 {
		t.Fatal("same-host rendezvous produced no direct reads")
	}
	if got := fabricCounters(t, worlds, "net_read_reqs"); got == 0 {
		t.Fatal("cross-host rendezvous produced no READ RPCs")
	}
}

func TestHybridSingleHost(t *testing.T) {
	// Every rank on one host: hybrid must degenerate to pure shm routing
	// (the TCP mesh stays up but carries no data).
	opts := mpi.Options{EagerLimit: 256}
	worlds := startNetWorldsCfg(t, "hybrid", 2, opts, rdma.FaultPlan{},
		func(rank int, cfg *netfabric.Config) { cfg.Host = "onehost" })
	ringWorkload(t, worlds, 10, 64)
	ringWorkload(t, worlds, 2, 4096)
	if got := fabricCounters(t, worlds, "net_tx_frames"); got != 0 {
		t.Fatalf("single-host hybrid sent %d frames over TCP", got)
	}
	if got := fabricCounters(t, worlds, "shm_tx_frames"); got == 0 {
		t.Fatal("single-host hybrid staged nothing over shm")
	}
}

// TestChunkedTCPRendezvous pins the chunked READ path: rendezvous
// payloads at the 1 MiB frame-cap boundary and well past it must arrive
// byte-exact (each splits into pipelined sub-reads on the wire).
func TestChunkedTCPRendezvous(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-MiB rendezvous transfers")
	}
	opts := mpi.Options{EagerLimit: 256}
	worlds := startNetWorlds(t, "tcp", 2, opts, rdma.FaultPlan{})
	for _, size := range []int{1<<20 - 1, 1<<20 + 1, 4 << 20} {
		ringWorkload(t, worlds, 1, size)
	}
}

// TestChunkedUDPRendezvous does the same over the datagram transport:
// sizes just past one sub-read (60000) and at 1 MiB split into windowed
// sub-reads, each with its own retry loop.
func TestChunkedUDPRendezvous(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-chunk rendezvous transfers")
	}
	opts := mpi.Options{EagerLimit: 256}
	worlds := startNetWorlds(t, "udp", 2, opts, rdma.FaultPlan{})
	for _, size := range []int{60001, 1 << 20} {
		ringWorkload(t, worlds, 1, size)
	}
}

// TestUDPReadTimeoutDropsPending forces total-timeout failures (the peer
// transport is never started, so requests land in its kernel buffer
// unanswered) and asserts the pending-read table ends empty — the leak
// the deferred drop exists to prevent, for single-chunk and chunked
// reads alike.
func TestUDPReadTimeoutDropsPending(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go netfabric.ServeCoordinator(ln, 2)
	trs := make([]rdma.Transport, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for k := 0; k < 2; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			trs[k], errs[k] = netfabric.New(netfabric.Config{
				Network: "udp", Rank: k, Ranks: 2,
				Coord: ln.Addr().String(), ReadTimeout: time.Millisecond,
			})
		}(k)
	}
	wg.Wait()
	ln.Close()
	for k, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", k, err)
		}
	}
	t.Cleanup(func() {
		trs[0].Close()
		trs[1].Close()
	})
	if err := trs[0].Start(rdma.NewRecvQueue(16), rdma.NewCQ()); err != nil {
		t.Fatal(err)
	}

	if err := trs[0].Read(1, make([]byte, 100), 7, 0, 100); err == nil {
		t.Fatal("single-chunk read against a silent peer succeeded")
	}
	if err := trs[0].Read(1, make([]byte, 150_000), 7, 0, 150_000); err == nil {
		t.Fatal("chunked read against a silent peer succeeded")
	}
	if got := netfabric.PendingReadCount(trs[0]); got != 0 {
		t.Fatalf("%d pending-read entries leaked after forced timeouts", got)
	}
}

// TestStrayFramesAreDropped feeds every wire of every network the frames
// outside input could carry — READ requests, responses and data claiming
// to come from the receiver itself, and READ traffic in the name of each
// other rank, including (under hybrid) a rank the receiving wire has no
// link to. None may crash the pump, take a posted buffer or surface a
// completion, and the transports must carry real traffic afterwards.
func TestStrayFramesAreDropped(t *testing.T) {
	for _, network := range []string{"tcp", "udp", "shm", "hybrid"} {
		t.Run(network, func(t *testing.T) {
			ranks := startConformance(t, network)
			for _, r := range ranks {
				r.rq.Post(make([]byte, 256), 1)
				mr := r.tr.RegisterMemory(make([]byte, 64))
				for src := range ranks {
					if err := netfabric.InjectStray(r.tr, src, mr.RKey, 64); err != nil {
						t.Fatalf("rank %d, frames from %d: %v", r.tr.Rank(), src, err)
					}
				}
				r.tr.Deregister(mr)
				if c, ok := r.cq.Poll(0); ok {
					t.Fatalf("rank %d: stray frame completed a receive: %+v", r.tr.Rank(), c)
				}
			}
			for k, r := range ranks {
				to := ranks[(k+1)%len(ranks)]
				if err := r.tr.Endpoint(to.tr.Rank()).Send([]byte{byte(k)}, 0, 0); err != nil {
					t.Fatalf("send %d -> %d after stray frames: %v", k, to.tr.Rank(), err)
				}
			}
			for k, r := range ranks {
				from := byte((k + len(ranks) - 1) % len(ranks))
				if c := r.next(t); c.Err != nil || c.WRID != 1 || len(c.Data) != 1 || c.Data[0] != from {
					t.Fatalf("rank %d: completion after stray frames: %+v", k, c)
				}
			}
		})
	}
}

func TestCoordinatorRejectsDuplicateRank(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan error, 1)
	go func() { done <- netfabric.ServeCoordinator(ln, 2) }()

	// Two hellos claiming the same rank: the round must fail, not hang.
	for i := 0; i < 2; i++ {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := fmt.Fprintf(conn, `{"rank":0,"ranks":2,"addr":"127.0.0.1:1"}`+"\n"); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("coordinator accepted a short round")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("coordinator did not fail the round")
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []netfabric.Config{
		{Network: "sctp", Rank: 0, Ranks: 2, Coord: "x"},
		{Network: "tcp", Rank: 2, Ranks: 2, Coord: "x"},
		{Network: "tcp", Rank: -1, Ranks: 2, Coord: "x"},
		{Network: "udp", Rank: 0, Ranks: 0, Coord: "x"},
		{Network: "tcp", Rank: 0, Ranks: 2},
	}
	for i, cfg := range cases {
		if _, err := netfabric.New(cfg); err == nil {
			t.Errorf("case %d: config %+v accepted, want error", i, cfg)
		}
	}
}

// Package replay executes an MPI trace over a live mini-MPI world, driving
// every traced point-to-point operation through the configured matching
// engine. Where the analyzer (package analyzer) *emulates* matching on the
// trace's own timeline, replay actually runs it: each rank is a goroutine
// issuing its traced operations in order, messages cross the simulated
// RDMA fabric, and the offloaded engine matches them in parallel blocks —
// an end-to-end validation that the full stack sustains real application
// communication patterns.
package replay

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/trace"
)

// Config parameterizes a replay run.
type Config struct {
	// Engine selects the matching engine (default EngineHost).
	Engine mpi.EngineKind
	// MaxMessageBytes caps traced transfer sizes (default 4096): traces
	// record element counts that can be large, and replay is about
	// matching behaviour, not bandwidth.
	MaxMessageBytes int
	// Options overrides the world options; Engine above takes precedence.
	// Options.Obs configures observability (set TraceEvents for event
	// tracing); the world's sinks land in Result.Sinks either way.
	Options mpi.Options
}

// MatcherConfig is the matcher shape replays run on: 4096 receives over 256
// bins, 8-wide blocks, every §IV-D optimization on.
func MatcherConfig() core.Config {
	return core.Config{
		Bins: 256, MaxReceives: 4096, BlockSize: 8,
		EarlyBookingCheck: true,
	}
}

func (c *Config) fill() {
	if c.MaxMessageBytes == 0 {
		c.MaxMessageBytes = 4096
	}
	c.Options.Engine = c.Engine
	if c.Options.RecvDepth == 0 {
		c.Options.RecvDepth = 64
	}
	if c.Options.Matcher == (core.Config{}) {
		c.Options.Matcher = MatcherConfig()
	}
}

// Result summarizes a replay.
type Result struct {
	Ranks       int
	Sends       int
	Recvs       int
	Collectives int
	Elapsed     time.Duration
	// Totals are the hosted ranks' settled statistics — the offloaded
	// engines' counters, injected faults and repair work — and the worlds'
	// observability sinks, read after teardown.
	mpi.Totals
}

// String renders a one-line summary.
func (r *Result) String() string {
	return fmt.Sprintf("replayed %d ranks: %d sends, %d recvs, %d collectives in %v",
		r.Ranks, r.Sends, r.Recvs, r.Collectives, r.Elapsed.Round(time.Millisecond))
}

// Run replays t. Every rank of the trace becomes a goroutine in a world of
// the same size; traced receives, sends, progress and collective calls map
// to Irecv, Isend, Waitall and Barrier respectively.
func Run(t *trace.Trace, cfg Config) (*Result, error) {
	cfg.fill()
	n := t.NumRanks()
	if n == 0 {
		return nil, fmt.Errorf("replay: empty trace")
	}
	w, err := mpi.NewWorld(n, cfg.Options)
	if err != nil {
		return nil, err
	}
	return RunWorlds(t, cfg, []*mpi.World{w})
}

// RunWorlds replays t over caller-built worlds of one job and closes them.
// Only the ranks the worlds host are driven: an in-process world replays
// the whole trace, a NewNetWorld member replays its one rank while its
// peers — in this slice or in other processes — replay theirs; the trace
// must be identical everywhere (the synthetic generators are
// deterministic, so same app + scale suffices). Counts and statistics cover
// the hosted ranks only; the Elapsed window is aligned across processes by
// the trace's own collectives and the final barrier every rank runs.
func RunWorlds(t *trace.Trace, cfg Config, worlds []*mpi.World) (*Result, error) {
	cfg.fill()
	defer mpi.CloseWorlds(worlds)
	n := t.NumRanks()
	if n == 0 {
		return nil, fmt.Errorf("replay: empty trace")
	}
	if size := worlds[0].Size(); size != n {
		return nil, fmt.Errorf("replay: world of %d ranks cannot host a %d-rank trace", size, n)
	}

	res := &Result{Ranks: n}
	start := time.Now()

	var wg sync.WaitGroup
	errs := make([]error, n)
	counts := make([]Result, n)
	local := 0
	for ri := range t.Ranks {
		rank := int(t.Ranks[ri].Rank)
		for _, w := range worlds {
			if !w.Hosts(rank) {
				continue
			}
			local++
			wg.Add(1)
			go func() {
				defer wg.Done()
				counts[ri], errs[ri] = replayRank(w.Proc(rank), t.Ranks[ri].Events, cfg)
			}()
		}
	}
	if local == 0 {
		return nil, fmt.Errorf("replay: worlds host none of the trace's ranks")
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("replay: rank %d: %w", r, err)
		}
	}
	res.Elapsed = time.Since(start)
	res.Totals = mpi.Quiesce(worlds)
	for i := range counts {
		res.Sends += counts[i].Sends
		res.Recvs += counts[i].Recvs
		res.Collectives += counts[i].Collectives
	}
	return res, nil
}

// replayRank issues one rank's traced operations in order.
func replayRank(p *mpi.Proc, events []trace.Event, cfg Config) (Result, error) {
	var counts Result
	var pending []*mpi.Request

	size := func(count int32) int {
		s := int(count)
		if s < 1 {
			s = 1
		}
		if s > cfg.MaxMessageBytes {
			s = cfg.MaxMessageBytes
		}
		return s
	}

	for _, e := range events {
		switch e.Kind {
		case trace.OpRecv:
			if e.Comm < 0 {
				continue // reserved communicator in a foreign trace
			}
			buf := make([]byte, size(e.Count))
			req, err := p.Comm(e.Comm).Irecv(int(e.Peer), int(e.Tag), buf)
			if err != nil {
				return counts, err
			}
			pending = append(pending, req)
			counts.Recvs++
		case trace.OpSend:
			if e.Comm < 0 {
				continue
			}
			req, err := p.Comm(e.Comm).Isend(int(e.Peer), int(e.Tag), make([]byte, size(e.Count)))
			if err != nil {
				return counts, err
			}
			pending = append(pending, req)
			counts.Sends++
		case trace.OpProgress:
			if err := mpi.Waitall(pending...); err != nil {
				return counts, err
			}
			pending = pending[:0]
		case trace.OpCollective:
			// Synchronization superset: every traced collective becomes a
			// barrier, which itself flows through the matching engine.
			if err := mpi.Waitall(pending...); err != nil {
				return counts, err
			}
			pending = pending[:0]
			if err := p.World().Barrier(); err != nil {
				return counts, err
			}
			counts.Collectives++
		}
	}
	if err := mpi.Waitall(pending...); err != nil {
		return counts, err
	}
	// Final synchronization so no rank tears the world down while peers
	// still expect acknowledgements.
	return counts, p.World().Barrier()
}

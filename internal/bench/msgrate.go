// Package bench implements the paper's evaluation harnesses: the Figure 8
// message-rate ping-pong benchmark over the mini-MPI stack, and the
// Figure 6/7 drivers over the trace analyzer.
package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/match"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/rdma"
)

// MsgRateConfig describes one Figure 8 scenario. The defaults mirror §VI:
// sequences of K=100 small messages, 500 repetitions, 1024 in-flight
// receives, hash tables twice the in-flight count, and the DPA threads
// dpa.ThreadsFor the matcher (32 at one block in flight).
type MsgRateConfig struct {
	Label string
	// Engine selects Optimistic-DPA / MPI-CPU / RDMA-CPU.
	Engine mpi.EngineKind
	// Conflict selects the workload: false = all receives use distinct
	// tags (the "no-conflict" case, NC), true = all receives share one
	// (source, tag) (the "with-conflict" case, WC).
	Conflict bool
	// Matcher configures the offload engine.
	Matcher core.Config
	// K is messages per sequence (default 100).
	K int
	// Reps is the number of sequences (default 500).
	Reps int
	// PayloadBytes is the eager payload size (default 8).
	PayloadBytes int
	// CoalesceBytes arms sender-side eager coalescing (mpi.Options; zero =
	// off): consecutive eager sends leave as multi-message wire frames, and
	// the achieved mean frame width lands in MsgRateResult.BatchWidth.
	CoalesceBytes int
	// Faults optionally injects deterministic fabric faults; an active plan
	// arms the reliability sublayer, whose counters land in the result.
	Faults rdma.FaultPlan
	// Obs configures the world's observability sinks. Counters are always
	// collected; set TraceEvents (e.g. via obs.Options.Tracing) to capture
	// event rings for Chrome trace export. The sinks land in
	// MsgRateResult.Sinks.
	Obs obs.Options
}

func (c *MsgRateConfig) fill() {
	if c.K == 0 {
		c.K = 100
	}
	if c.Reps == 0 {
		c.Reps = 500
	}
	if c.PayloadBytes == 0 {
		c.PayloadBytes = 8
	}
	if c.Matcher == (core.Config{}) {
		c.Matcher = PaperMatcherConfig()
	}
}

// PaperMatcherConfig returns the §VI prototype configuration: 1024
// in-flight receives, hash tables at twice that, 32 threads.
func PaperMatcherConfig() core.Config {
	return core.Config{
		Bins:              2048,
		MaxReceives:       1024 + 64, // paper's in-flight budget + control slack
		BlockSize:         32,
		EarlyBookingCheck: true,
	}
}

// MsgRateResult is the outcome of one scenario.
type MsgRateResult struct {
	Label      string
	Messages   int
	Elapsed    time.Duration
	MsgPerSec  float64
	Engine     mpi.EngineKind
	MatchStats core.EngineStats // offload engine only
	Depth      match.Stats      // receiver-side search-depth profile
	// BatchWidth is the achieved mean messages per coalesced wire frame
	// across both ranks (0 when coalescing was off or never flushed).
	BatchWidth float64
	// Faults and Reliability are populated when cfg.Faults is active.
	Faults      rdma.FaultSnapshot
	Reliability mpi.ReliabilitySnapshot
	// Sinks are the world's observability sinks (per rank plus the fabric),
	// captured before teardown for stats/trace export. Names are prefixed
	// with the scenario label when one is set.
	Sinks []obs.Named
}

// String renders one result row.
func (r *MsgRateResult) String() string {
	return fmt.Sprintf("%-22s %12.0f msg/s  (%d msgs in %v)",
		r.Label, r.MsgPerSec, r.Messages, r.Elapsed.Round(time.Millisecond))
}

// tags
const (
	goTag   = 5000 // receiver → sender: sequence receives are posted
	ackTag  = 5001 // receiver → sender: sequence fully matched
	dataTag = 7    // WC data tag
)

// RunMsgRate executes the §VI ping-pong: the receiver posts K receives and
// signals readiness; the sender fires the K-message sequence; once the
// receiver has matched (and received) all of them it acknowledges. Message
// rate is total data messages over total elapsed time.
func RunMsgRate(cfg MsgRateConfig) (*MsgRateResult, error) {
	cfg.fill()
	w, err := mpi.NewWorld(2, mpi.Options{
		Engine:        cfg.Engine,
		Matcher:       cfg.Matcher,
		RecvDepth:     2 * cfg.K,
		Faults:        cfg.Faults,
		CoalesceBytes: cfg.CoalesceBytes,
		Obs:           cfg.Obs,
	})
	if err != nil {
		return nil, err
	}
	defer w.Close()

	sender := w.Proc(0).World()
	receiver := w.Proc(1).World()
	payload := make([]byte, cfg.PayloadBytes)

	tagOf := func(i int) int {
		if cfg.Conflict {
			return dataTag // every receive shares (source=0, tag=7)
		}
		return i // distinct keys spread over the tables
	}

	errCh := make(chan error, 1)
	go func() {
		bufs := make([][]byte, cfg.K)
		for i := range bufs {
			bufs[i] = make([]byte, cfg.PayloadBytes)
		}
		reqs := make([]*mpi.Request, cfg.K)
		for rep := 0; rep < cfg.Reps; rep++ {
			for i := 0; i < cfg.K; i++ {
				req, err := receiver.Irecv(0, tagOf(i), bufs[i])
				if err != nil {
					errCh <- err
					return
				}
				reqs[i] = req
			}
			if err := receiver.Send(0, goTag, nil); err != nil {
				errCh <- err
				return
			}
			if err := mpi.Waitall(reqs...); err != nil {
				errCh <- err
				return
			}
			if err := receiver.Send(0, ackTag, nil); err != nil {
				errCh <- err
				return
			}
		}
		errCh <- nil
	}()

	var sync [1]byte
	start := time.Now()
	for rep := 0; rep < cfg.Reps; rep++ {
		if _, err := sender.Recv(1, goTag, sync[:]); err != nil {
			return nil, err
		}
		for i := 0; i < cfg.K; i++ {
			if _, err := sender.Isend(1, tagOf(i), payload); err != nil {
				return nil, err
			}
		}
		if _, err := sender.Recv(1, ackTag, sync[:]); err != nil {
			return nil, err
		}
	}
	elapsed := time.Since(start)
	if err := <-errCh; err != nil {
		return nil, err
	}

	res := &MsgRateResult{
		Label:     cfg.Label,
		Messages:  cfg.K * cfg.Reps,
		Elapsed:   elapsed,
		MsgPerSec: float64(cfg.K*cfg.Reps) / elapsed.Seconds(),
		Engine:    cfg.Engine,
	}
	if m := w.Proc(1).Matcher(); m != nil {
		res.MatchStats = m.Stats()
		res.Depth = m.DepthStats()
	} else {
		res.Depth = w.Proc(1).HostStats()
	}
	if cfg.Faults.Active() {
		res.Faults = w.FaultStats()
		res.Reliability = w.ReliabilityStats()
	}
	var frames, coalesced uint64
	for r := 0; r < 2; r++ {
		h := w.Proc(r).Obs().Hist(obs.HistCoalesceWidth)
		frames += h.Count
		coalesced += h.Sum
	}
	if frames > 0 {
		res.BatchWidth = float64(coalesced) / float64(frames)
	}
	// Sink state (atomics) stays readable after the deferred Close; only
	// the names need the scenario prefix for multi-run exports.
	res.Sinks = w.ObsSinks()
	if cfg.Label != "" {
		for i := range res.Sinks {
			res.Sinks[i].Name = cfg.Label + "/" + res.Sinks[i].Name
		}
	}
	return res, nil
}

// Figure8Scenarios returns the five §VI configurations: Optimistic-DPA in
// the no-conflict, with-conflict fast-path, and with-conflict slow-path
// settings, plus the MPI-CPU and RDMA-CPU baselines. Every scenario carries
// its matcher shape, so a caller can adjust it in place.
func Figure8Scenarios() []MsgRateConfig {
	nc := PaperMatcherConfig()
	fp := nc
	// The fast path requires the all-threads-book-the-same-receive
	// precondition, which needs simultaneous handler activation and no
	// early-booking shortcut (see core.Config docs).
	fp.EarlyBookingCheck = false
	fp.SimultaneousArrival = true

	sp := fp
	sp.DisableFastPath = true

	return []MsgRateConfig{
		{Label: "Optimistic-DPA NC", Engine: mpi.EngineOffload, Conflict: false, Matcher: nc},
		{Label: "Optimistic-DPA WC-FP", Engine: mpi.EngineOffload, Conflict: true, Matcher: fp},
		{Label: "Optimistic-DPA WC-SP", Engine: mpi.EngineOffload, Conflict: true, Matcher: sp},
		{Label: "MPI-CPU", Engine: mpi.EngineHost, Conflict: false, Matcher: nc},
		{Label: "RDMA-CPU", Engine: mpi.EngineRaw, Conflict: false, Matcher: nc},
	}
}

package bench

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"repro/internal/mpi"
)

// RingConfig describes one multi-rank message-rate run: every rank sends
// K-message sequences to its ring successor and receives from its
// predecessor, Reps times. Unlike the Figure 8 ping-pong (two ranks, one
// direction), the ring keeps every rank's send and receive engines busy
// simultaneously, so with rank processes pinned to distinct cores the
// aggregate rate scales with the process count — the workload behind the
// out-of-process transport measurements in EXPERIMENTS.md §"Multi-process
// scaling" and behind every matchd ring job.
type RingConfig struct {
	// K is messages per sequence, Reps the number of sequences,
	// PayloadBytes the eager payload.
	K, Reps, PayloadBytes int
	// Window bounds the receives a rank keeps posted at once: a sequence
	// runs as ⌈K/Window⌉ windows. Anything outside [1,K] means K — one
	// window per sequence, the unpaced ring.
	Window int
	// OnExtraWindow, if set, is called (from the rank goroutines, so
	// concurrently) once per window that exists only because Window < K:
	// ⌈K/Window⌉ − 1 times per rank per sequence, as they happen — a job
	// that fails or is canceled mid-run has still reported its pacing.
	OnExtraWindow func()
}

// RingResult is one ring run's outcome as observed by this process.
type RingResult struct {
	// Ranks is the world size.
	Ranks int
	// Messages is the global data-message count (Ranks × K × Reps);
	// every rank's timing window is barrier-aligned, so the global rate
	// is Messages over this process's Elapsed.
	Messages int
	Elapsed  time.Duration
	// Totals are the hosted ranks' settled statistics and sinks.
	mpi.Totals
}

// RunRing drives every rank the worlds host — all of them for an
// in-process world, one per NewNetWorld member — through the ring workload,
// then closes the worlds and totals their statistics (on failure too; the
// first rank error is returned).
func RunRing(worlds []*mpi.World, cfg RingConfig) (*RingResult, error) {
	if cfg.Window < 1 || cfg.Window > cfg.K {
		cfg.Window = cfg.K
	}
	var procs []*mpi.Proc
	for _, w := range worlds {
		procs = append(procs, w.LocalProcs()...)
	}
	n := worlds[0].Size()
	// bufs[i] receives rank i's sequences, message m at m×PayloadBytes.
	bufs := make([][]byte, len(procs))
	for i := range bufs {
		bufs[i] = make([]byte, cfg.K*cfg.PayloadBytes)
	}

	// Every rank barriers at entry and exit of its workload (barriers are
	// collective, so each hosted rank must make its own calls); the timing
	// window brackets the goroutines and is barrier-aligned across the job
	// up to spawn overhead.
	start := time.Now()
	errs := make([]error, len(procs))
	var wg sync.WaitGroup
	for i, p := range procs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = ringLoop(p, cfg, bufs[i])
		}()
	}
	wg.Wait()
	res := &RingResult{Ranks: n, Messages: n * cfg.K * cfg.Reps, Elapsed: time.Since(start)}
	res.Totals = mpi.Quiesce(worlds)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	// Every payload byte is the sender's stamp, so after the run a rank's
	// buffer must hold only its predecessor's. Checked once, outside the timed
	// window: byte-comparing every message costs as much as moving it at
	// rendezvous sizes. The raw engine pairs arrivals with posts by FIFO
	// order, not tag, so buffer contents are not attributable there —
	// verification is a matching-engine check.
	if worlds[0].Engine() != mpi.EngineRaw {
		for i, p := range procs {
			rank := p.World().Rank()
			if prev := (rank + n - 1) % n; !bytes.Equal(bufs[i], ringPayload(prev, len(bufs[i]))) {
				return nil, fmt.Errorf("rank %d received a payload that is not rank %d's", rank, prev)
			}
		}
	}
	return res, nil
}

// ringPayload is the payload rank sends: every byte its stamp, rank+1, so
// no rank's stamp is a fresh buffer's zero.
func ringPayload(rank, size int) []byte {
	return bytes.Repeat([]byte{byte(rank + 1)}, size)
}

// ringLoop runs one rank's side of the ring, receiving into buf. Per
// repetition the K receives are posted window by window; the predecessor's
// sends for a window are released only once its receives are
// posted (the ready token — Figure 8's go-token), so no data message ever
// lands unexpected, tag reuse across repetitions cannot cross-match, and
// the posted depth never exceeds Window plus the token slot. A rank is its
// own neighbour in a one-rank world, which degenerates to a self-loop
// throughput test.
func ringLoop(p *mpi.Proc, cfg RingConfig, buf []byte) error {
	c := p.World()
	rank, n := c.Rank(), c.Size()
	next, prev := (rank+1)%n, (rank+n-1)%n
	payload := ringPayload(rank, cfg.PayloadBytes)
	if err := c.Barrier(); err != nil {
		return err
	}
	var token [1]byte
	reqs := make([]*mpi.Request, 0, 2*cfg.Window)
	for rep := 0; rep < cfg.Reps; rep++ {
		for base, win := 0, 0; base < cfg.K; base, win = base+cfg.Window, win+1 {
			m := min(cfg.Window, cfg.K-base)
			reqs = reqs[:0]
			// The token receive is posted before the data receives: on the
			// matching engines order is irrelevant, but the raw engine
			// completes posts in FIFO order ignoring tags, and the token is
			// the one arrival every rank gets unconditionally — posted first
			// it unblocks ready.Wait instead of consuming a data slot and
			// deadlocking the ring. Token tags sit above the data tags [0,K).
			ready, err := c.Irecv(next, cfg.K+win, token[:])
			if err != nil {
				return err
			}
			for i := 0; i < m; i++ {
				req, err := c.Irecv(prev, base+i, buf[(base+i)*cfg.PayloadBytes:][:cfg.PayloadBytes])
				if err != nil {
					return err
				}
				reqs = append(reqs, req)
			}
			if err := c.Send(prev, cfg.K+win, nil); err != nil {
				return err
			}
			if win > 0 && cfg.OnExtraWindow != nil {
				cfg.OnExtraWindow()
			}
			if _, err := ready.Wait(); err != nil {
				return err
			}
			for i := 0; i < m; i++ {
				req, err := c.Isend(next, base+i, payload)
				if err != nil {
					return err
				}
				reqs = append(reqs, req)
			}
			if err := mpi.Waitall(reqs...); err != nil {
				return err
			}
		}
	}
	return c.Barrier()
}

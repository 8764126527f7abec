package mpi

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/match"
	"repro/internal/obs"
)

// This file implements sender-side adaptive coalescing of eager messages.
// Consecutive eager sends toward one destination on one communicator are
// staged into a per-destination frame buffer and leave as a single
// kindEagerBatch wire message (wire.go), so the fabric, the receive CQ,
// and the reliability sublayer each pay their per-message cost once per
// frame instead of once per message — the fixed-overhead regime that
// bounds small-message rate in Figure 8.
//
// The flush policy is adaptive with four triggers:
//
//   - size: the frame body reached CoalesceBytes (or the next record
//     would not fit the staged buffer);
//   - count: the frame holds maxBatchMsgs sub-messages, the most one
//     kindEagerBatch frame may carry;
//   - sync: an ordering or progress point was reached — Request.Wait /
//     Waitall, a bypass send to the same destination (rendezvous
//     RTS, internal/collective traffic on negative communicators, a
//     communicator switch), or world drain/Close;
//   - timeout: a staleness timer bounds how long a buffered message can
//     wait for company (coalesceTimeout) when the sender goes quiet
//     without synchronizing.
//
// Sync flushes are what keep coalescing invisible to MPI semantics: no
// message can be stranded behind a blocked sender, and the non-overtaking
// order between a buffered eager message and any later matchable send to
// the same destination is preserved by flushing before the bypass.
//
// A send that is coalesced still completes its Request immediately — the
// payload is copied into the frame at add() time, exactly as QP.Send
// copies it for a lone eager message, so buffered-send semantics are
// unchanged.

// flushReason says which policy trigger flushed a frame. The values are
// the EvCoalesceFlush A-payload and must stay in sync with its comment.
type flushReason uint8

const (
	flushSize flushReason = iota
	flushCount
	flushSync
	flushTimeout
)

// coalesceTimeout bounds how long a buffered eager message may wait for
// company before the staleness timer flushes it.
const coalesceTimeout = 200 * time.Microsecond

// reasonCounters maps flush reasons to their obs counters.
var reasonCounters = [...]obs.Counter{
	flushSize:    obs.CtrCoalesceFlushSize,
	flushCount:   obs.CtrCoalesceFlushCount,
	flushSync:    obs.CtrCoalesceFlushSync,
	flushTimeout: obs.CtrCoalesceFlushTimeout,
}

// coalescer is the per-rank coalescing state: one frame buffer per
// destination, a cheap armed/buffered fast path for the flush-everything
// probes Wait issues, and a background staleness timer.
type coalescer struct {
	p          *Proc
	bytesLimit int

	dsts []coalesceBuf

	// buffered counts destinations with a non-empty frame, so flushAll —
	// called on every Wait — is a single atomic load when nothing is
	// pending.
	buffered atomic.Int32

	stop chan struct{}
	wg   sync.WaitGroup
}

// coalesceBuf is one destination's staged frame. The buffer is allocated
// once at world creation with capacity for the largest legal frame, so
// the steady-state coalescing path allocates nothing.
type coalesceBuf struct {
	mu    sync.Mutex
	frame []byte // header placeholder + staged body; cap fixed
	count int
	comm  int32
	since time.Time // when the oldest buffered message arrived
}

func newCoalescer(p *Proc) *coalescer {
	o := &p.w.opts
	c := &coalescer{
		p:          p,
		bytesLimit: o.CoalesceBytes,
		dsts:       make([]coalesceBuf, p.n),
		stop:       make(chan struct{}),
	}
	frameCap := o.frameCap()
	for i := range c.dsts {
		c.dsts[i].frame = make([]byte, headerSize, frameCap)
	}
	return c
}

// start launches the staleness timer.
func (c *coalescer) start() {
	c.wg.Add(1)
	go c.run()
}

// shutdown stops the timer and flushes every destination so no buffered
// message outlives the world's QPs.
func (c *coalescer) shutdown() {
	close(c.stop)
	c.wg.Wait()
	_ = c.flushAll(flushSync)
}

// add stages one eager message toward dst and applies the flush policy.
// The payload is copied, so the caller's buffer is free on return.
func (c *coalescer) add(dst int, tag int32, comm match.CommID, hashes match.InlineHashes, payload []byte) error {
	b := &c.dsts[dst]
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.count > 0 {
		// A frame carries one communicator (the offload engine routes
		// whole frames by it) and never grows past its staged buffer.
		if int32(comm) != b.comm {
			if err := c.flushLocked(b, dst, flushSync); err != nil {
				return err
			}
		} else if len(b.frame)+subRecordSize(len(payload)) > cap(b.frame) {
			if err := c.flushLocked(b, dst, flushSize); err != nil {
				return err
			}
		}
	}
	if b.count == 0 {
		b.comm = int32(comm)
		b.since = time.Now()
		c.buffered.Add(1)
	}
	b.frame = appendSubRecord(b.frame, tag, hashes, payload)
	b.count++
	switch {
	case b.count >= maxBatchMsgs:
		return c.flushLocked(b, dst, flushCount)
	case len(b.frame)-headerSize >= c.bytesLimit:
		return c.flushLocked(b, dst, flushSize)
	}
	return nil
}

// flushDst flushes one destination's frame, if any. Bypass sends (RTS,
// negative-communicator traffic) call it before their own sendWire so the
// per-destination wire order matches program order.
func (c *coalescer) flushDst(dst int, reason flushReason) error {
	b := &c.dsts[dst]
	b.mu.Lock()
	defer b.mu.Unlock()
	return c.flushLocked(b, dst, reason)
}

// flushAll flushes every destination. It is the synchronization-point
// hook (Wait/Waitall, world drain) and costs one atomic load when
// nothing is buffered.
func (c *coalescer) flushAll(reason flushReason) error {
	if c.buffered.Load() == 0 {
		return nil
	}
	var first error
	for dst := range c.dsts {
		if err := c.flushDst(dst, reason); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// flushLocked finalizes the staged frame header and pushes the frame onto
// the wire (through the reliability sublayer when armed, which assigns it
// one sequence number). Called with b.mu held.
func (c *coalescer) flushLocked(b *coalesceBuf, dst int, reason flushReason) error {
	if b.count == 0 {
		return nil
	}
	h := header{
		kind: kindEagerBatch,
		src:  int32(c.p.rank),
		comm: b.comm,
		size: uint32(len(b.frame) - headerSize),
		rkey: uint64(b.count),
	}
	h.encode(b.frame[:headerSize])
	// Count the flush before the send: the in-process transport delivers
	// before sendWire returns, and whoever that delivery wakes must already
	// see the flush in the counters (as launchLocked does for blocks).
	s := c.p.obs
	s.Counters.Inc(reasonCounters[reason])
	s.Observe(obs.HistCoalesceWidth, uint64(b.count))
	if s.Enabled() {
		s.Event(obs.EvCoalesceFlush, dst, uint64(reason), uint64(b.count), uint64(len(b.frame)))
	}
	err := c.p.sendWire(dst, b.frame)
	b.count = 0
	b.frame = b.frame[:headerSize]
	c.buffered.Add(-1)
	return err
}

// run is the staleness timer: it flushes any frame whose oldest message
// has waited longer than the timeout, covering senders that neither fill
// a frame nor reach a synchronization point.
func (c *coalescer) run() {
	defer c.wg.Done()
	tick := time.NewTicker(coalesceTimeout / 2)
	defer tick.Stop()
	for {
		select {
		case <-c.stop:
			return
		case now := <-tick.C:
			if c.buffered.Load() == 0 {
				continue
			}
			for dst := range c.dsts {
				b := &c.dsts[dst]
				b.mu.Lock()
				if b.count > 0 && now.Sub(b.since) >= coalesceTimeout {
					_ = c.flushLocked(b, dst, flushTimeout)
				}
				b.mu.Unlock()
			}
		}
	}
}

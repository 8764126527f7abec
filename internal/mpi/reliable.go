package mpi

import (
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/rdma"
)

// This file implements the reliability sublayer that sits between an
// unreliable transport and the matching engines. On real BlueField
// hardware the RC transport retransmits below the NIC's matching unit;
// our simulated fabric instead exposes its faults (drop, duplication,
// reordering, RNR NAKs — rdma.FaultPlan) and this layer repairs them, so
// the engines above observe exactly the per-peer in-order, exactly-once
// message streams they would see on a lossless run. Matching outcomes are
// therefore identical with and without injected faults.
//
// Protocol: every reliable message (eager, RTS, rendezvous ACK) carries a
// per-(sender, destination) sequence number. The receiver delivers only
// in sequence order, buffering out-of-order arrivals and discarding
// duplicates, and acknowledges with a cumulative kindSack control message
// (exempt from fault injection, but loss-tolerant: every later arrival
// re-acks). The sender retains a copy of each unacked message and
// retransmits on a timeout that backs off exponentially up to a cap.

// reliability is the per-rank instance of the sublayer.
type reliability struct {
	p *Proc

	// send side: one state per destination rank, created at start.
	sends []relSend

	// receive side: one state per source rank; touched only by the run
	// goroutine, so unlocked.
	recvs []relRecv

	// sackBuf reuses one header buffer for outgoing acks (run goroutine
	// only); sackDirty collects the sources to ack after each CQ batch so
	// acks coalesce instead of doubling the message count.
	sackBuf   [headerSize]byte
	sackDirty []bool

	retxTimeout time.Duration
	retxMax     time.Duration

	// Injectable seams. Production wiring (newReliability) binds them to
	// the wall clock and the proc's QPs; the fake-clock unit tests bind
	// them to a manual clock and in-memory transmit logs, so timeout and
	// backoff behaviour is testable without a fabric or goroutines.
	now         func() time.Time
	xmit        func(dst int, wire []byte) error // data-plane send (faultable)
	xmitControl func(dst int, wire []byte) error // control-plane send (sacks)
	getBuf      func(n int) []byte               // retained-copy allocation
	putBuf      func([]byte)                     // retained-copy release

	// obs carries the sublayer's counters (obs.CtrRel*) and repair events;
	// always non-nil (newProc injects the rank's shared sink).
	obs *obs.Sink

	stop chan struct{}
	wg   sync.WaitGroup
}

// relSend tracks the unacked window toward one destination.
type relSend struct {
	mu      sync.Mutex
	nextSeq uint32
	pending map[uint32]*relPending
}

// relPending is one retained in-flight message.
type relPending struct {
	wire     []byte // full header+payload copy, pool-backed
	deadline time.Time
	backoff  time.Duration
}

// relRecv tracks the in-order delivery cursor from one source.
type relRecv struct {
	expected uint32
	buffered map[uint32]rdma.Completion // future sequences, bounce buffers held
}

// ReliabilitySnapshot is a point-in-time copy of the sublayer's counters,
// read from its observability sink (obs.CtrRel*).
type ReliabilitySnapshot struct {
	Sent        uint64 // reliable messages first-sent
	Retransmits uint64 // timeout-driven re-sends
	Acked       uint64 // pending entries retired by a sack
	Sacks       uint64 // cumulative acks transmitted
	DupDropped  uint64 // duplicate arrivals suppressed
	OutOfOrder  uint64 // arrivals buffered for reordering
	SendRNR     uint64 // sends refused by the fabric (retried later)
}

// snapshot reads the sublayer's counters out of its sink.
func (rel *reliability) snapshot() ReliabilitySnapshot {
	c := &rel.obs.Counters
	return ReliabilitySnapshot{
		Sent:        c.Load(obs.CtrRelSent),
		Retransmits: c.Load(obs.CtrRelRetransmits),
		Acked:       c.Load(obs.CtrRelAcked),
		Sacks:       c.Load(obs.CtrRelSacks),
		DupDropped:  c.Load(obs.CtrRelDupDropped),
		OutOfOrder:  c.Load(obs.CtrRelOutOfOrder),
		SendRNR:     c.Load(obs.CtrRelSendRNR),
	}
}

// Add folds another snapshot into s, for world-wide aggregation.
func (s ReliabilitySnapshot) Add(t ReliabilitySnapshot) ReliabilitySnapshot {
	s.Sent += t.Sent
	s.Retransmits += t.Retransmits
	s.Acked += t.Acked
	s.Sacks += t.Sacks
	s.DupDropped += t.DupDropped
	s.OutOfOrder += t.OutOfOrder
	s.SendRNR += t.SendRNR
	return s
}

// newReliabilityCore builds the sublayer's state machine for n peers with
// all seams at their test defaults: wall clock, no transport, a private
// counters-only sink, and plain make/discard buffer management. Unit tests
// use it directly and bind xmit/xmitControl/now to fakes.
func newReliabilityCore(n int, timeout time.Duration) *reliability {
	if timeout <= 0 {
		timeout = 2 * time.Millisecond
	}
	rel := &reliability{
		sends:       make([]relSend, n),
		recvs:       make([]relRecv, n),
		sackDirty:   make([]bool, n),
		retxTimeout: timeout,
		retxMax:     16 * timeout,
		now:         time.Now,
		getBuf:      func(n int) []byte { return make([]byte, n) },
		putBuf:      func([]byte) {},
		obs:         obs.New(obs.Options{}),
		stop:        make(chan struct{}),
	}
	for i := range rel.sends {
		rel.sends[i].pending = make(map[uint32]*relPending)
	}
	for i := range rel.recvs {
		rel.recvs[i].buffered = make(map[uint32]rdma.Completion)
	}
	return rel
}

func newReliability(p *Proc, timeout time.Duration) *reliability {
	rel := newReliabilityCore(p.n, timeout)
	rel.p = p
	rel.xmit = func(dst int, wire []byte) error {
		return p.sendEP[dst].Send(wire, 0, 0)
	}
	rel.xmitControl = func(dst int, wire []byte) error {
		return p.sendEP[dst].SendControl(wire, 0, 0)
	}
	// Retained retransmit copies come from the size-classed slab: frames
	// can be far larger than a lone eager message, and the slab keeps the
	// under-faults send path allocation-free across that size variance.
	rel.getBuf = p.w.slab.get
	rel.putBuf = p.w.slab.put
	return rel
}

// start launches the receive filter and the retransmit timer.
func (rel *reliability) start() {
	rel.wg.Add(2)
	go rel.run()
	go rel.retransmitLoop()
}

// shutdown stops both goroutines. The raw CQ must be closed first so run
// drains and exits; pending unacked messages are abandoned — World.Close
// runs flush first, so abandonment only happens after the flush bound
// expires.
func (rel *reliability) shutdown() {
	rel.p.rawCQ.Close()
	close(rel.stop)
	rel.wg.Wait()
}

// relFlushTimeout bounds how long a world's Close keeps the repair
// machinery alive waiting for peers to ack the rank's final sends.
const relFlushTimeout = 2 * time.Second

// flush blocks until every retained reliable send has been acked, or the
// bound expires (reporting false). A world runs this before tearing its
// endpoints down: a rank completing its traffic says nothing about
// delivery to its peers — its last message (typically a barrier release)
// may have been dropped, and only this rank's retransmit timer can repair
// that. The retransmit and receive goroutines are still running here, so
// the loop just polls the windows.
func (rel *reliability) flush(bound time.Duration) bool {
	deadline := rel.now().Add(bound)
	step := rel.retxTimeout / 2
	if step < time.Millisecond {
		step = time.Millisecond
	}
	for {
		empty := true
		for i := range rel.sends {
			s := &rel.sends[i]
			s.mu.Lock()
			pending := len(s.pending)
			s.mu.Unlock()
			if pending > 0 {
				empty = false
				break
			}
		}
		if empty {
			return true
		}
		if !rel.now().Before(deadline) {
			return false
		}
		time.Sleep(step)
	}
}

// seqBefore reports a < b in wraparound-safe sequence arithmetic.
func seqBefore(a, b uint32) bool { return int32(a-b) < 0 }

// send transmits one reliable message: it assigns the next sequence
// number toward dst, patches it into the encoded header, retains a copy
// for retransmission, and pushes the message onto the wire. Fabric
// refusals (RNR NAK, full wire) are not errors — the retransmit timer
// repairs them — so send only fails once the world is closed.
func (rel *reliability) send(dst int, wire []byte) error {
	s := &rel.sends[dst]
	s.mu.Lock()
	seq := s.nextSeq
	s.nextSeq++
	putSeq(wire, seq)

	// Retain a pool-backed copy until the ack arrives.
	keep := rel.getBuf(len(wire))
	copy(keep, wire)
	s.pending[seq] = &relPending{
		wire:     keep,
		deadline: rel.now().Add(rel.retxTimeout),
		backoff:  rel.retxTimeout,
	}

	// First transmission attempt, inside the lock so the per-QP wire
	// order (and thus the fault schedule) follows sequence order.
	err := rel.xmit(dst, wire)
	s.mu.Unlock()
	rel.obs.Counters.Inc(obs.CtrRelSent)
	if err == rdma.ErrNoReceive {
		rel.obs.Counters.Inc(obs.CtrRelSendRNR)
		err = nil
	}
	if err == rdma.ErrClosed {
		return err
	}
	return nil
}

// putSeq patches the sequence field of an encoded header.
func putSeq(wire []byte, seq uint32) {
	wire[seqOffset] = byte(seq)
	wire[seqOffset+1] = byte(seq >> 8)
	wire[seqOffset+2] = byte(seq >> 16)
	wire[seqOffset+3] = byte(seq >> 24)
}

// retransmitLoop re-sends unacked messages whose deadline passed, backing
// off exponentially per message up to retxMax.
func (rel *reliability) retransmitLoop() {
	defer rel.wg.Done()
	tick := time.NewTicker(rel.retxTimeout / 2)
	defer tick.Stop()
	for {
		select {
		case <-rel.stop:
			return
		case now := <-tick.C:
			rel.scanRetransmits(now)
		}
	}
}

// scanRetransmits is one retransmit-timer pass at time now: every pending
// entry whose deadline has passed is re-sent and its backoff doubles, up to
// the retxMax cap. Factored out of retransmitLoop so the fake-clock tests
// drive the timer directly. Overdue entries are re-sent in sequence order
// (not map order) so the retransmit schedule is fully deterministic.
func (rel *reliability) scanRetransmits(now time.Time) {
	var seqs []uint32
	for dst := range rel.sends {
		s := &rel.sends[dst]
		s.mu.Lock()
		seqs = seqs[:0]
		for seq, pe := range s.pending {
			if !now.Before(pe.deadline) {
				seqs = append(seqs, seq)
			}
		}
		sort.Slice(seqs, func(i, j int) bool { return seqBefore(seqs[i], seqs[j]) })
		for _, seq := range seqs {
			pe := s.pending[seq]
			if err := rel.xmit(dst, pe.wire); err == rdma.ErrNoReceive {
				rel.obs.Counters.Inc(obs.CtrRelSendRNR)
			}
			rel.obs.Counters.Inc(obs.CtrRelRetransmits)
			pe.backoff *= 2
			if pe.backoff > rel.retxMax {
				pe.backoff = rel.retxMax
			}
			pe.deadline = now.Add(pe.backoff)
			rel.obs.Observe(obs.HistRetxBackoffNs, uint64(pe.backoff))
			if rel.obs.Enabled() {
				rel.obs.Event(obs.EvRetransmit, dst, uint64(dst), uint64(seq), uint64(pe.backoff))
			}
		}
		s.mu.Unlock()
	}
}

// handleSack retires every pending entry below the cumulative ack.
func (rel *reliability) handleSack(h header) {
	dst := int(h.src) // the acker is our destination
	if dst < 0 || dst >= len(rel.sends) {
		return
	}
	s := &rel.sends[dst]
	var retired uint64
	s.mu.Lock()
	for seq, pe := range s.pending {
		if seqBefore(seq, h.seq) {
			rel.putBuf(pe.wire)
			delete(s.pending, seq)
			retired++
		}
	}
	s.mu.Unlock()
	rel.obs.Counters.Add(obs.CtrRelAcked, retired)
	if retired > 0 && rel.obs.Enabled() {
		rel.obs.Event(obs.EvAck, dst, uint64(dst), uint64(h.seq), retired)
	}
}

// run is the receive filter: it drains the raw fabric CQ, repairs the
// stream (dedup, reorder, ack), and republishes engine-ready completions
// onto p.recvCQ in per-source sequence order. Bounce-buffer accounting is
// exact: every buffer is either reposted here (duplicates, acks, errors)
// or forwarded downstream exactly once for the engine to repost.
func (rel *reliability) run() {
	defer rel.wg.Done()
	p := rel.p
	batch := make([]rdma.Completion, cqDrainBatch)
	for cursor := uint64(0); ; {
		n, ok := p.rawCQ.WaitBatch(cursor, batch)
		if !ok {
			return
		}
		for i := 0; i < n; i++ {
			c := batch[i]
			if c.Err != nil {
				// Error completion (e.g. ErrBufferSize): the posted buffer
				// is attached unfilled; recycle it and move on.
				p.repost(c.Data)
				continue
			}
			h, err := decodeHeader(c.Data)
			if err != nil {
				p.repost(c.Data)
				continue
			}
			if h.kind == kindSack {
				rel.handleSack(h)
				p.repost(c.Data)
				continue
			}
			rel.admit(h, c)
		}
		cursor += uint64(n)
		p.rawCQ.Trim(cursor)
		rel.flushSacks()
	}
}

// admit applies the go-back-window acceptance rule to one arrival.
func (rel *reliability) admit(h header, c rdma.Completion) {
	src := int(h.src)
	if src < 0 || src >= len(rel.recvs) {
		rel.p.repost(c.Data)
		return
	}
	r := &rel.recvs[src]
	switch {
	case h.seq == r.expected:
		r.expected++
		rel.p.recvCQ.Push(c)
		// Drain any buffered successors that are now in order.
		for {
			bc, ok := r.buffered[r.expected]
			if !ok {
				break
			}
			delete(r.buffered, r.expected)
			r.expected++
			rel.p.recvCQ.Push(bc)
		}
	case seqBefore(r.expected, h.seq):
		// Future sequence: hold the bounce buffer until the gap fills.
		// A retransmission may duplicate a buffered message; drop those.
		if _, dup := r.buffered[h.seq]; dup {
			rel.repair(obs.CtrRelDupDropped, src, h.seq, 0)
			rel.p.repost(c.Data)
		} else {
			rel.repair(obs.CtrRelOutOfOrder, src, h.seq, 1)
			r.buffered[h.seq] = c
		}
	default:
		// Already delivered: a duplicate or a retransmission that crossed
		// our sack. Re-ack so the sender stops retransmitting.
		rel.repair(obs.CtrRelDupDropped, src, h.seq, 0)
		rel.p.repost(c.Data)
	}
	rel.sackDirty[src] = true
}

// repair tallies one stream repair and, when tracing, records an
// EvFaultRepair event (code 0 = duplicate dropped, 1 = buffered
// out-of-order).
func (rel *reliability) repair(ctr obs.Counter, src int, seq uint32, code uint64) {
	rel.obs.Counters.Inc(ctr)
	if rel.obs.Enabled() {
		rel.obs.Event(obs.EvFaultRepair, src, uint64(src), uint64(seq), code)
	}
}

// flushSacks sends one cumulative ack to every source that had traffic in
// the last batch. Sacks ride SendControl: exempt from fault injection and
// dropped rather than blocking when the link is saturated — the next arrival
// or retransmission re-triggers them.
func (rel *reliability) flushSacks() {
	for src, dirty := range rel.sackDirty {
		if !dirty {
			continue
		}
		rel.sackDirty[src] = false
		h := header{kind: kindSack, src: int32(rel.p.rank), seq: rel.recvs[src].expected}
		h.encode(rel.sackBuf[:])
		_ = rel.xmitControl(src, rel.sackBuf[:])
		rel.obs.Counters.Inc(obs.CtrRelSacks)
	}
}

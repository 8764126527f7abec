package rdma

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/recycle"
)

// recvWR is a posted receive work request: a buffer waiting for a message.
type recvWR struct {
	buf  []byte
	wrID uint64
}

// RecvQueue is a pool of posted receive buffers. It can be private to one
// QP or shared among several (the shared-receive-queue pattern the MPI
// layer uses: all senders of a rank feed one pool of bounce buffers).
//
// A queue made by NewRecvQueue holds what its owner posts. One made by
// NewBounceQueue makes its own buffers when a take finds none posted, a
// slab of slabBuffers at a time, until depth exist; from then on it is the
// same pool, refilled by Post. Its taker finds a buffer exactly when fewer
// than depth are in use, as if depth buffers had been posted up front.
type RecvQueue struct {
	ch chan recvWR

	// size is the bounce-buffer size, 0 on a queue its owner posts. made
	// counts the buffers the queue has made, at most cap(ch), and slabs
	// holds what they were cut from, for Release; mu serializes growth.
	size  int
	mu    sync.Mutex
	made  int
	slabs [][]byte
}

// slabBuffers is how many bounce buffers one allocation makes.
const slabBuffers = 8

// slabPool holds released slabs by byte length: a queue's last slab may be
// short, and only a slab of exactly the length wanted is handed out.
var slabPool recycle.ByLen[byte]

// NewRecvQueue returns a pool with the given depth. Posting beyond the
// depth blocks, which models receiver-not-ready backpressure.
func NewRecvQueue(depth int) *RecvQueue {
	return &RecvQueue{ch: make(chan recvWR, depth)}
}

// NewBounceQueue returns a pool of depth buffers of size bytes each, made
// on first take rather than up front: a rank that receives little pays for
// little. Buffers come back with Post; nobody else may post to it.
func NewBounceQueue(depth, size int) *RecvQueue {
	return &RecvQueue{ch: make(chan recvWR, depth), size: size}
}

// Post adds a receive buffer to the pool.
func (rq *RecvQueue) Post(buf []byte, wrID uint64) {
	rq.ch <- recvWR{buf: buf, wrID: wrID}
}

// poll takes a posted buffer without blocking. When none is posted a
// bounce queue with fewer than depth buffers makes a slab and hands out its
// first; ok is false only when every buffer the queue may hold is in use.
func (rq *RecvQueue) poll() (wr recvWR, ok bool) {
	select {
	case wr = <-rq.ch:
		return wr, true
	default:
	}
	if rq.size == 0 {
		return wr, false
	}
	rq.mu.Lock()
	defer rq.mu.Unlock()
	// A repost, or another taker's slab, may have landed meanwhile.
	select {
	case wr = <-rq.ch:
		return wr, true
	default:
	}
	n := min(slabBuffers, cap(rq.ch)-rq.made)
	if n == 0 {
		return wr, false
	}
	// Capped slices, so a repost's buf[:cap(buf)] restores exactly one
	// buffer. The channel has room: fewer than depth buffers exist.
	size, slab := rq.size, slabPool.Get(n*rq.size)
	if rq.slabs == nil {
		rq.slabs = make([][]byte, 0, (cap(rq.ch)+slabBuffers-1)/slabBuffers)
	}
	rq.slabs = append(rq.slabs, slab)
	for i := 1; i < n; i++ {
		rq.ch <- recvWR{buf: slab[i*size : (i+1)*size : (i+1)*size], wrID: uint64(rq.made + i)}
	}
	wr = recvWR{buf: slab[:size:size], wrID: uint64(rq.made)}
	rq.made += n
	return wr, true
}

// Release hands the slabs the queue made to a process-wide pool, from
// which the next bounce queues draw theirs. Neither the queue nor any
// buffer it handed out may be used afterwards.
func (rq *RecvQueue) Release() {
	rq.mu.Lock()
	defer rq.mu.Unlock()
	for _, slab := range rq.slabs {
		slabPool.Put(slab)
	}
	rq.slabs = nil
}

// QP is one endpoint of a connected queue pair. Inbound messages consume
// buffers from the receive queue and complete on the receive CQ, in per-QP
// FIFO order. Delivery is inline: the sending goroutine itself lands the
// payload in the peer's posted buffer and pushes the receive completion, so
// a pair owns no goroutine.
type QP struct {
	recvCQ *CQ
	rq     *RecvQueue // nil on an end without a RecvCQ: it can never receive

	peer *QP

	// inj is the fault stream of the link this end sends on; nil on a
	// lossless fabric, in which case Send keeps its blocking semantics.
	// While heldSpan > 0 the stream has delayed a message: held is a private
	// copy of its payload (the sender may reuse its buffer long before the
	// release), delivered once heldSpan later sends have overtaken it. All
	// three are guarded by the stream's lock.
	inj      *faultStream
	held     []byte
	heldImm  uint32
	heldSpan int

	// shut is set by Close just before it closes done: land asks it, and
	// done stays for a Send blocked waiting for a posted buffer.
	shut atomic.Bool
	done chan struct{}
}

// QPConfig describes one endpoint of a pair.
type QPConfig struct {
	RecvCQ *CQ        // completions for inbound messages; nil for a send-only end
	RQ     *RecvQueue // posted receive buffers (may be shared between QPs)
	// Depth is the depth of the private receive queue created when RQ is
	// nil and RecvCQ is not (default 64). It bounds nothing else: a sender's
	// slack is exactly the number of buffers its peer has posted.
	Depth int
}

// ConnectPair creates two connected QPs on the fabric. Under an active
// fault plan the k-th pair's two directions are links 2k and 2k+1 of the
// plan (FaultPlan.stream).
func (f *Fabric) ConnectPair(a, b QPConfig) (*QP, *QP) {
	f.mu.Lock()
	link := f.nextQP
	f.nextQP += 2
	sink := f.sinkLocked()
	f.mu.Unlock()
	qa, qb := connect(a, b)
	qa.inj, qb.inj = f.faults.stream(link, sink), f.faults.stream(link+1, sink)
	return qa, qb
}

// connect pairs two fresh QPs.
func connect(a, b QPConfig) (*QP, *QP) {
	qa, qb := newQP(a), newQP(b)
	qa.peer, qb.peer = qb, qa
	return qa, qb
}

func newQP(cfg QPConfig) *QP {
	rq := cfg.RQ
	if rq == nil && cfg.RecvCQ != nil {
		depth := cfg.Depth
		if depth <= 0 {
			depth = 64
		}
		rq = NewRecvQueue(depth)
	}
	return &QP{recvCQ: cfg.RecvCQ, rq: rq, done: make(chan struct{})}
}

// Send transmits data with immediate value imm. The payload is copied into
// the peer's next posted receive buffer before Send returns, so the caller
// may reuse data immediately. Returns ErrClosed once either end is closed,
// and ErrNoReceive when the peer end was connected without a RecvCQ.
//
// On a lossless fabric Send blocks while the peer has no posted receive
// buffer (receiver-not-ready back-pressure). Under an active fault plan it
// never blocks: an empty receive queue surfaces ErrNoReceive (the RNR NAK a
// reliability layer must retry through), and the link's fault stream may
// additionally drop, duplicate, delay, or stall the message, or fail the
// send with an injected RNR.
func (q *QP) Send(data []byte, imm uint32, wrID uint64) error {
	if q.inj != nil {
		return q.sendFaulty(data, imm)
	}
	return q.land(data, imm, true)
}

// sendFaulty is the injected-fault send path. The verdict is drawn and
// applied under the stream's lock in send order, so the schedule is a
// deterministic function of (seed, link, send ordinal) alone.
func (q *QP) sendFaulty(data []byte, imm uint32) error {
	in := q.inj
	in.mu.Lock()
	defer in.mu.Unlock()
	d := in.decide()
	if d.RNR {
		// Receiver-not-ready NAK: the message never left.
		q.releaseHeld()
		in.note(obs.CtrFaultRNR)
		return ErrNoReceive
	}
	if d.Stall {
		// CQ backpressure stalls the send pipeline. A monotonic spin:
		// sleeping is too coarse for a microsecond.
		in.note(obs.CtrFaultStalls)
		for end := time.Now().Add(in.rates.StallTime); time.Now().Before(end); {
		}
	}
	switch {
	case d.Drop:
		// Lost on the wire after the NIC accepted it: the sender sees
		// success, the receiver sees nothing.
		q.releaseHeld()
		in.note(obs.CtrFaultDropped)
		return nil
	case d.Delay && q.heldSpan == 0:
		// Hold the message back; the next DelaySpan sends overtake it.
		q.held, q.heldImm = append(q.held[:0], data...), imm
		q.heldSpan = in.rates.DelaySpan
		in.note(obs.CtrFaultDelayed)
		return nil
	}
	if err := q.land(data, imm, false); err != nil {
		if err == ErrNoReceive { // no posted receive: surfaced instead of blocking
			in.note(obs.CtrFaultRNR)
		}
		return err
	}
	if d.Dup {
		// A retransmission race delivers the message twice; if no second
		// receive is posted the duplicate is simply lost.
		if q.land(data, imm, false) == nil {
			in.note(obs.CtrFaultDuplicated)
		}
	}
	q.releaseHeld()
	return nil
}

// releaseHeld re-injects the delayed message once enough later sends have
// overtaken it; if no receive is posted at that moment the delayed message
// is lost (equivalent to a drop, which the reliability layer repairs).
// Called with the stream's lock held.
func (q *QP) releaseHeld() {
	if q.heldSpan == 0 {
		return
	}
	if q.heldSpan--; q.heldSpan > 0 {
		return
	}
	if q.land(q.held, q.heldImm, false) != nil {
		q.inj.note(obs.CtrFaultDropped)
	}
}

// SendControl transmits control-plane traffic exempt from fault injection
// (reliability acknowledgements repair the data plane, so injecting into
// them would couple the two PRNG streams and break schedule determinism).
// It never blocks: with no posted receive the message is dropped — control
// traffic must be idempotent and repairable — and ErrNoReceive reported
// (ErrClosed once either end has closed).
func (q *QP) SendControl(data []byte, imm uint32, wrID uint64) error {
	return q.land(data, imm, false)
}

// land delivers one message on the calling goroutine: it takes the peer's
// next posted receive buffer, copies data into it and pushes the receive
// completion, which is what keeps per-QP FIFO order for a sending goroutine
// without any delivery engine in between (a bounce queue makes the buffer
// if it has none yet). With wait set it blocks while no buffer is free,
// until one is or either end closes (ErrClosed); without, an empty queue is
// ErrNoReceive, or ErrClosed once either end has closed.
// A message larger than its receive buffer produces an error completion
// carrying ErrBufferSize — never a silent truncation — with the posted
// buffer attached for recycling.
func (q *QP) land(data []byte, imm uint32, wait bool) error {
	p := q.peer
	if p.recvCQ == nil {
		return ErrNoReceive // send-only end: nowhere to complete a receive
	}
	wr, ok := p.rq.poll()
	if !ok {
		if !wait {
			if q.closed() || p.closed() {
				return ErrClosed
			}
			return ErrNoReceive
		}
		select {
		case wr = <-p.rq.ch:
		case <-p.done:
			return ErrClosed
		case <-q.done:
			return ErrClosed
		}
	}
	if q.closed() || p.closed() {
		// A closed pair delivers nothing, however the race between Close
		// and a posted buffer fell out: hand the buffer back (the queue may
		// be shared with live QPs).
		select {
		case p.rq.ch <- wr:
		default:
		}
		return ErrClosed
	}
	c := Completion{Op: OpRecv, WRID: wr.wrID, Bytes: len(data), Imm: imm}
	if len(data) > len(wr.buf) {
		c.Data, c.Err = wr.buf[:0], ErrBufferSize
	} else {
		c.Data = wr.buf[:copy(wr.buf, data)]
	}
	p.recvCQ.Push(c)
	return nil
}

func (q *QP) closed() bool { return q.shut.Load() }

// Close shuts the endpoint down: sends from it and toward it fail with
// ErrClosed, and a Send blocked on back-pressure in either direction
// returns. A message still held by the fault injector is lost.
func (q *QP) Close() {
	if q.shut.CompareAndSwap(false, true) {
		close(q.done)
	}
}

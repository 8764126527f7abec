package rdma

import (
	"sync"

	"repro/internal/obs"
)

// recvWR is a posted receive work request: a buffer waiting for a message.
type recvWR struct {
	buf  []byte
	wrID uint64
}

// RecvQueue is a pool of posted receive buffers. It can be private to one
// QP or shared among several (the shared-receive-queue pattern the MPI
// layer uses: all senders of a rank feed one pool of bounce buffers).
type RecvQueue struct {
	ch chan recvWR
}

// NewRecvQueue returns a pool with the given depth. Posting beyond the
// depth blocks, which models receiver-not-ready backpressure.
func NewRecvQueue(depth int) *RecvQueue {
	return &RecvQueue{ch: make(chan recvWR, depth)}
}

// Post adds a receive buffer to the pool.
func (rq *RecvQueue) Post(buf []byte, wrID uint64) {
	rq.ch <- recvWR{buf: buf, wrID: wrID}
}

// QP is one endpoint of a connected queue pair. Sends complete locally on
// the send CQ; inbound messages consume buffers from the receive queue and
// complete on the receive CQ, in per-QP FIFO order. Delivery is inline: the
// sending goroutine itself lands the payload in the peer's posted buffer and
// pushes the receive completion, so a pair owns no goroutine.
type QP struct {
	fabric *Fabric
	sendCQ *CQ
	recvCQ *CQ
	rq     *RecvQueue // nil on an end without a RecvCQ: it can never receive

	peer *QP

	// inj is the QP's deterministic fault stream; nil on a lossless
	// fabric, in which case Send keeps its blocking semantics.
	inj *injector

	done      chan struct{}
	closeOnce sync.Once
}

// QPConfig describes one endpoint of a pair.
type QPConfig struct {
	SendCQ *CQ        // completions for outbound sends (may be nil)
	RecvCQ *CQ        // completions for inbound messages; nil for a send-only end
	RQ     *RecvQueue // posted receive buffers (may be shared between QPs)
	// Depth is the depth of the private receive queue created when RQ is
	// nil and RecvCQ is not (default 64). It bounds nothing else: a sender's
	// slack is exactly the number of buffers its peer has posted.
	Depth int
}

// ConnectPair creates two connected QPs on the fabric. Under an active
// fault plan the QPs are assigned consecutive creation indices (2k and 2k+1
// for the k-th pair) that key their fault-decision streams and any per-QP
// rate overrides.
func (f *Fabric) ConnectPair(a, b QPConfig) (*QP, *QP) {
	qa := newQP(f, a)
	qb := newQP(f, b)
	f.mu.Lock()
	ida, idb := f.nextQP, f.nextQP+1
	f.nextQP += 2
	f.mu.Unlock()
	qa.inj = f.newInjector(ida)
	qb.inj = f.newInjector(idb)
	qa.peer, qb.peer = qb, qa
	return qa, qb
}

func newQP(f *Fabric, cfg QPConfig) *QP {
	rq := cfg.RQ
	if rq == nil && cfg.RecvCQ != nil {
		depth := cfg.Depth
		if depth <= 0 {
			depth = 64
		}
		rq = NewRecvQueue(depth)
	}
	return &QP{
		fabric: f,
		sendCQ: cfg.SendCQ,
		recvCQ: cfg.RecvCQ,
		rq:     rq,
		done:   make(chan struct{}),
	}
}

// Send transmits data with immediate value imm. The payload is copied into
// the peer's next posted receive buffer before Send returns, so the caller
// may reuse data immediately; the send completion is posted to the send CQ.
// Returns ErrClosed once either end is closed, and ErrNoReceive when the
// peer end was connected without a RecvCQ.
//
// On a lossless fabric Send blocks while the peer has no posted receive
// buffer (receiver-not-ready back-pressure). Under an active fault plan it
// never blocks: an empty receive queue surfaces ErrNoReceive (the RNR NAK a
// reliability layer must retry through), and the QP's injector may
// additionally drop, duplicate, delay, or stall the message, or fail the
// send with an injected RNR.
func (q *QP) Send(data []byte, imm uint32, wrID uint64) error {
	charge(q.fabric.cost.SendWire + q.fabric.cost.data(len(data)))
	if q.inj != nil {
		return q.sendFaulty(data, imm, wrID)
	}
	if err := q.land(data, imm, true); err != nil {
		return err
	}
	q.completeSend(wrID, len(data), imm)
	return nil
}

// sendFaulty is the injected-fault send path. All PRNG draws happen under
// the injector lock in send order, so the schedule is a deterministic
// function of (seed, QP id, send ordinal) alone.
func (q *QP) sendFaulty(data []byte, imm uint32, wrID uint64) error {
	in := q.inj
	in.mu.Lock()
	d := in.decide()
	if d.rnr {
		// Receiver-not-ready NAK: the message never left; no completion.
		q.releaseHeld()
		in.mu.Unlock()
		in.note(obs.CtrFaultRNR, faultCodeRNR)
		return ErrNoReceive
	}
	if d.stall {
		in.note(obs.CtrFaultStalls, faultCodeStall)
		charge(in.rates.StallTime) // CQ backpressure stalls the pipeline
	}
	switch {
	case d.drop:
		// Lost on the wire after the NIC accepted it: the sender still
		// sees a send completion, the receiver sees nothing.
		q.releaseHeld()
		in.mu.Unlock()
		in.note(obs.CtrFaultDropped, faultCodeDrop)
		q.completeSend(wrID, len(data), imm)
		return nil
	case d.delay && in.held == nil:
		// Hold the message back; the next DelaySpan sends overtake it. The
		// caller may reuse data meanwhile, so the held message owns a copy.
		in.held = &heldMsg{data: append([]byte(nil), data...), imm: imm}
		in.heldSpan = in.rates.DelaySpan
		in.mu.Unlock()
		in.note(obs.CtrFaultDelayed, faultCodeDelay)
		q.completeSend(wrID, len(data), imm)
		return nil
	}
	if q.land(data, imm, false) != nil {
		in.mu.Unlock()
		in.note(obs.CtrFaultRNR, faultCodeRNR)
		return ErrNoReceive // no posted receive: surfaced instead of blocking
	}
	if d.dup {
		// A retransmission race delivers the message twice; if no second
		// receive is posted the duplicate is simply lost.
		if q.land(data, imm, false) == nil {
			in.note(obs.CtrFaultDuplicated, faultCodeDup)
		}
	}
	q.releaseHeld()
	in.mu.Unlock()
	q.completeSend(wrID, len(data), imm)
	return nil
}

// releaseHeld re-injects the delayed message once enough later sends have
// overtaken it; if no receive is posted at that moment the delayed message
// is lost (equivalent to a drop, which the reliability layer repairs).
// Called with the injector lock held.
func (q *QP) releaseHeld() {
	in := q.inj
	if in.held == nil {
		return
	}
	in.heldSpan--
	if in.heldSpan > 0 {
		return
	}
	msg := in.held
	in.held = nil
	if q.land(msg.data, msg.imm, false) != nil {
		in.note(obs.CtrFaultDropped, faultCodeDrop)
	}
}

// completeSend posts the local send completion.
func (q *QP) completeSend(wrID uint64, n int, imm uint32) {
	if q.sendCQ != nil {
		q.sendCQ.Push(Completion{Op: OpSend, WRID: wrID, Bytes: n, Imm: imm})
	}
}

// SendControl transmits control-plane traffic exempt from fault injection
// (reliability acknowledgements repair the data plane, so injecting into
// them would couple the two PRNG streams and break schedule determinism).
// It never blocks: with no posted receive the message is dropped — control
// traffic must be idempotent and repairable — and ErrNoReceive reported.
func (q *QP) SendControl(data []byte, imm uint32, wrID uint64) error {
	charge(q.fabric.cost.SendWire + q.fabric.cost.data(len(data)))
	if q.land(data, imm, false) != nil {
		return ErrNoReceive
	}
	q.completeSend(wrID, len(data), imm)
	return nil
}

// PostRecv adds a receive buffer to this endpoint's receive queue. The
// endpoint must have been connected with a RecvCQ.
func (q *QP) PostRecv(buf []byte, wrID uint64) { q.rq.Post(buf, wrID) }

// land delivers one message on the calling goroutine: it takes the peer's
// next posted receive buffer, copies data into it and pushes the receive
// completion, which is what keeps per-QP FIFO order for a sending goroutine
// without any delivery engine in between. With wait set it blocks while no
// buffer is posted, until one is or either end closes (ErrClosed); without,
// an empty queue is ErrNoReceive. A message larger than its receive buffer
// produces an error completion carrying ErrBufferSize — never a silent
// truncation — with the posted buffer attached for recycling.
func (q *QP) land(data []byte, imm uint32, wait bool) error {
	p := q.peer
	if p.recvCQ == nil {
		return ErrNoReceive // send-only end: nowhere to complete a receive
	}
	var wr recvWR
	select {
	case wr = <-p.rq.ch:
	default:
		if !wait {
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

func (q *QP) closed() bool {
	select {
	case <-q.done:
		return true
	default:
		return false
	}
}

// Close shuts the endpoint down: sends from it and toward it fail with
// ErrClosed, and a Send blocked on back-pressure in either direction
// returns. A message still held by the fault injector is lost.
func (q *QP) Close() { q.closeOnce.Do(func() { close(q.done) }) }

// Fabric returns the fabric the QP belongs to.
func (q *QP) Fabric() *Fabric { return q.fabric }

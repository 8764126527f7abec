package mpi

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/dpa"
	"repro/internal/match"
	"repro/internal/obs"
	"repro/internal/rdma"
)

// cqDrainBatch is how many completions the host-side progress loops drain
// from the receive CQ per lock acquisition.
const cqDrainBatch = 64

// engine is a receiver-side matching engine: it owns the arrival path and
// accepts receive postings from the application.
type engine interface {
	// start launches the arrival-processing machinery.
	start()
	// post presents a user receive; the engine completes it immediately
	// when a stored unexpected message matches.
	post(r *match.Recv) error
	// close shuts the arrival path down.
	close()
}

// dispatch is the one arrival switch, shared by every engine: it takes a
// receive completion apart and reposts its bounce buffer. An error
// completion (e.g. rdma.ErrBufferSize) carries the posted buffer unfilled;
// a malformed header cannot occur from our own wire layer, and a sack
// outside the reliability filter is stray: all three are only recycled. A
// lost peer's completion (rdma.ErrPeerLost, the rank in Imm) carries no
// buffer and is dropped; the requests that wait on that peer are not
// failed here. A rendezvous ACK completes its pending send. What remains
// is data — an eager message, an RTS, or a coalesced frame — and the
// engine supplies the two things it does with it:
//
//   - take, when non-nil, may claim the whole completion, buffer included,
//     before a frame is unbatched (the offload engine forms matching blocks
//     from what it takes). A lone eager or RTS message is offered to take
//     first with only its kind and communicator read (peekHeader), since
//     the engine decodes it in full anyway; what take leaves goes through
//     decodeHeader as everything else does;
//   - message handles one data message, called once per sub-message of a
//     frame under a synthesized eager header, so every message of a burst
//     flows through the engine before the buffer is reposted. The payload
//     aliases the bounce buffer. Returning false stops the walk.
//
// dispatch reports false once message has: the engine is shutting down.
func (p *Proc) dispatch(c rdma.Completion, take func(header, rdma.Completion) bool, message func(header, []byte) bool) bool {
	if c.Err != nil && errors.Is(c.Err, rdma.ErrPeerLost) {
		return true
	}
	if take != nil && c.Err == nil {
		if h, ok := peekHeader(c.Data); ok && take(h, c) {
			return true
		}
	}
	ok := true
	h, err := header{}, c.Err
	if err == nil {
		h, err = decodeHeader(c.Data)
	}
	switch {
	case err != nil || h.kind == kindSack:
	case h.kind == kindAck:
		p.handleAck(h)
	case take != nil && take(h, c):
		return true
	case h.kind != kindEagerBatch:
		ok = message(h, payloadOf(h, c.Data))
	default:
		if it, err := newBatchIter(h, c.Data); err == nil {
			for m, more := it.next(); ok && more; m, more = it.next() {
				ok = message(subHeader(h.src, h.comm, m), m.payload)
			}
		}
	}
	p.repost(c.Data)
	return ok
}

// drain is the host-side progress loop of the engines that match on the
// CPU: it pulls the receive CQ in batches (one lock acquisition per batch)
// and runs every completion through dispatch — sequentially, the
// serialization offloading removes — until the CQ closes or message stops
// the walk.
func (p *Proc) drain(message func(header, []byte) bool) {
	batch := make([]rdma.Completion, cqDrainBatch)
	for cursor := uint64(0); ; {
		n, ok := p.recvCQ.WaitBatch(cursor, batch)
		if !ok {
			return
		}
		for _, c := range batch[:n] {
			if !p.dispatch(c, nil, message) {
				return
			}
		}
		cursor += uint64(n)
		p.recvCQ.Trim(cursor) // keep the window bounded
		p.obs.Counters.Inc(obs.CtrCQDrains)
		p.obs.Counters.Add(obs.CtrCQCompletions, uint64(n))
		p.obs.Observe(obs.HistDrainBatch, uint64(n))
		if p.obs.Enabled() {
			p.obs.Event(obs.EvCQDrain, 0, uint64(n), cursor, uint64(n))
		}
	}
}

// lockedList is the traditional two-queue list matcher behind a lock, as
// the host engine and the offload engine's software fallback both run it:
// posts race with the goroutine that feeds arrivals.
type lockedList struct {
	p  *Proc
	mu sync.Mutex
	lm *match.ListMatcher
}

func newLockedList(p *Proc) *lockedList {
	return &lockedList{p: p, lm: match.NewListMatcher()}
}

// message runs one data message through the list matcher and delivers or
// stores it; envelopes come from the world's pool, so the steady-state loop
// allocates nothing. The payload may alias a bounce buffer: it is
// stabilized under the lock when the message goes unexpected (a concurrent
// post could otherwise take the envelope while it still aliases the
// buffer), so the buffer may be reposted as soon as message returns.
func (l *lockedList) message(h header, payload []byte) bool {
	env := fillEnvelope(l.p.w.envPool.Get(), h, payload)
	l.mu.Lock()
	r, matched := l.lm.Arrive(env)
	if !matched {
		env.Stabilize()
	}
	l.mu.Unlock()
	if matched {
		l.p.deliverMatch(r, env)
		l.p.w.envPool.Put(env)
		l.p.recycleRecv(r)
	}
	return true
}

func (l *lockedList) post(r *match.Recv) {
	l.mu.Lock()
	env, ok := l.lm.PostRecv(r)
	l.mu.Unlock()
	if ok {
		l.p.deliverMatch(r, env)
		l.p.w.envPool.Put(env)
		l.p.recycleRecv(r)
	}
}

// ---------------------------------------------------------------------------
// Host engine: traditional on-CPU linked-list matching (Fig. 8 "MPI-CPU").

type hostEngine struct {
	p    *Proc
	list *lockedList
	wg   sync.WaitGroup
}

func newHostEngine(p *Proc) (*hostEngine, error) {
	return &hostEngine{p: p, list: newLockedList(p)}, nil
}

func (e *hostEngine) start() {
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		e.p.drain(e.list.message)
	}()
}

func (e *hostEngine) post(r *match.Recv) error {
	e.list.post(r)
	return nil
}

func (e *hostEngine) close() {
	e.p.recvCQ.Close()
	e.wg.Wait()
}

// ---------------------------------------------------------------------------
// Offload engine: optimistic tag matching on the simulated DPA
// (Fig. 8 "Optimistic-DPA").

type offloadEngine struct {
	p       *Proc
	acc     *dpa.Accelerator
	matcher *core.OptimisticMatcher
	pipe    *dpa.Pipeline

	// Software fallback (§IV-E): communicators that opted out or did not
	// fit in DPA memory are matched on the host with the traditional list
	// algorithm. Their arrivals never enter a matching block: take leaves
	// them to dispatch, which feeds them to the list on the formation loop.
	fallback      *lockedList
	fallbackComms map[match.CommID]bool

	// formed is the match-bound stream the pipeline's Expand hook is
	// appending to (formation loop only).
	formed []rdma.Completion
}

func newOffloadEngine(p *Proc) (*offloadEngine, error) {
	// The accelerator starts its workers at its first wake-up, so a
	// rejected engine has nothing to stop.
	acc, err := dpa.New(p.w.opts.DPA)
	if err != nil {
		return nil, err
	}
	mcfg := p.w.opts.Matcher
	if mcfg.BlockSize > acc.Threads() {
		return nil, fmt.Errorf("mpi: matcher block size %d exceeds %d DPA threads",
			mcfg.BlockSize, acc.Threads())
	}
	matcher, err := core.New(mcfg)
	if err != nil {
		return nil, err
	}
	// The rank's sink becomes the matcher's observability domain, so the
	// engine's counters, the pipeline's CQ-drain accounting, and the
	// reliability sublayer all export through one Named sink per rank.
	matcher.SetObs(p.obs)
	// Budget the default matching tables against DPA memory (§IV-E);
	// failure to fit the base set is a setup error.
	fp := matcher.ModelFootprint()
	if err := acc.Reserve(fp.Total()); err != nil {
		return nil, fmt.Errorf("mpi: matching tables (%d B) exceed DPA memory: %w", fp.Total(), err)
	}
	e := &offloadEngine{
		p: p, acc: acc, matcher: matcher,
		fallback:      newLockedList(p),
		fallbackComms: make(map[match.CommID]bool),
	}
	// Stabilize unexpected payloads inside the matcher, under the store
	// lock, before the message becomes visible to posts: with posts running
	// concurrently with arrival blocks, stabilizing any later would let a
	// post deliver an envelope that still aliases the bounce buffer.
	matcher.SetUnexpectedHook((*match.Envelope).Stabilize)
	// Apply communicator info objects: hints propagate to the engine;
	// opted-out or unbudgetable communicators fall back to software.
	for id, info := range p.w.opts.CommInfo {
		comm := match.CommID(id)
		if info.NoOffload {
			e.fallbackComms[comm] = true
			continue
		}
		if err := acc.Reserve(fp.Total()); err != nil {
			// §IV-E: "If it is not possible to allocate DPA resources at
			// communicator creation time, the MPI implementation is
			// expected to fall back to software tag matching."
			e.fallbackComms[comm] = true
			continue
		}
		e.matcher.SetCommHints(comm, info.Hints)
	}
	e.pipe = dpa.NewPipeline(acc, matcher, p.recvCQ)
	e.pipe.Envelopes = p.w.envPool // share one pool across pipeline and posts
	e.pipe.Decode = e.decode
	e.pipe.Handle = e.handle
	// Every completion goes through dispatch on the formation loop. The
	// pipeline hands Control the error completions and Expand the rest,
	// which returns what take claimed for matching.
	take, fallback := e.take, e.fallback.message
	e.pipe.Expand = func(c rdma.Completion, out []rdma.Completion) []rdma.Completion {
		e.formed = out
		p.dispatch(c, take, fallback)
		return e.formed
	}
	e.pipe.Control = func(c rdma.Completion) { p.dispatch(c, nil, nil) }
	return e, nil
}

// subImm marks a completion synthesized by take for one sub-message of
// a coalesced frame. The fabric always delivers imm 0 (this layer sends
// with imm 0 everywhere), so the marker cannot collide with real traffic.
const subImm uint32 = 1

// frameRef ties the sub-message completions of one expanded frame back to
// their shared bounce buffer. The last Handle to release its sub-message
// reposts the buffer; refs themselves are pooled so the unbatching path
// allocates nothing in steady state.
type frameRef struct {
	buf       []byte
	remaining atomic.Int32
}

var frameRefPool = sync.Pool{New: func() any { return new(frameRef) }}

// take claims a data completion on an offloaded communicator for block
// formation: a lone message passes through unchanged, a coalesced frame is
// unbatched into one completion per sub-message. Each sub-completion
// carries the sub-record slice as Data, the frame's (src, comm) packed into
// WRID, the subImm marker, and a shared frameRef so the bounce buffer is
// reposted exactly once, after the last sub-message's protocol handling. A
// malformed frame (impossible from our own wire layer, but the decoder must
// not trust the wire) is dropped whole and its buffer reposted here.
// Fallback-communicator traffic is left to dispatch. For a lone message h
// may be peekHeader's, holding kind and comm only; a frame's is decoded in
// full.
func (e *offloadEngine) take(h header, c rdma.Completion) bool {
	if len(e.fallbackComms) != 0 && e.fallbackComms[match.CommID(h.comm)] {
		return false
	}
	if h.kind != kindEagerBatch {
		e.formed = append(e.formed, c)
		return true
	}
	it, err := newBatchIter(h, c.Data)
	if err != nil {
		e.p.repost(c.Data)
		return true
	}
	out := e.formed
	ref := frameRefPool.Get().(*frameRef)
	ref.buf = c.Data
	base := len(out)
	body := c.Data[headerSize:]
	wrid := uint64(uint32(h.src))<<32 | uint64(uint32(h.comm))
	for {
		start := len(body) - len(it.body)
		m, ok := it.next()
		if !ok {
			break
		}
		end := len(body) - len(it.body)
		out = append(out, rdma.Completion{
			Op:    c.Op,
			WRID:  wrid,
			Bytes: len(m.payload),
			Imm:   subImm,
			Data:  body[start:end:end],
			Aux:   ref,
		})
	}
	if it.err != nil {
		out = out[:base]
		ref.buf = nil
		frameRefPool.Put(ref)
		e.p.repost(c.Data)
	} else {
		ref.remaining.Store(int32(len(out) - base))
	}
	e.formed = out
	return true
}

// release recycles a completion's bounce buffer after protocol handling:
// directly for lone messages, through the frame's reference count for
// expanded sub-messages.
func (e *offloadEngine) release(c rdma.Completion) {
	if ref, ok := c.Aux.(*frameRef); ok {
		if ref.remaining.Add(-1) == 0 {
			buf := ref.buf
			ref.buf = nil
			frameRefPool.Put(ref)
			e.p.repost(buf)
		}
		return
	}
	e.p.repost(c.Data)
}

func (e *offloadEngine) start() { e.pipe.Start() }

// decode runs on a DPA thread: parse the header — the only full decode a
// lone message gets, as dispatch classified it by peekHeader — and fill the
// window's envelope. The eager payload still aliases the bounce buffer
// here; the matcher's unexpected hook stabilizes it if it goes unexpected.
func (e *offloadEngine) decode(c rdma.Completion, env *match.Envelope) *match.Envelope {
	if c.Imm == subImm {
		// A sub-message expanded out of a coalesced frame: Data is one
		// sub-record, WRID carries the frame's (src, comm).
		it := batchIter{body: c.Data, left: 1}
		m, ok := it.next()
		if !ok {
			env.Comm = -1
			return env
		}
		return fillEnvelope(env, subHeader(int32(c.WRID>>32), int32(uint32(c.WRID)), m), m.payload)
	}
	h, err := decodeHeader(c.Data)
	if err != nil {
		// Malformed traffic cannot occur from our own wire layer; match it
		// to nothing by using an impossible communicator.
		env.Comm = -1
		return env
	}
	return fillEnvelope(env, h, payloadOf(h, c.Data))
}

// handle runs on a DPA thread after the optimistic match: protocol handling
// per §IV-B, then bounce-buffer recycling. Matched envelopes stay in the
// pipeline's block window; unexpected ones were already stabilized by the
// matcher's unexpected hook (before becoming visible to posts) and live in
// the matcher's store until post() delivers and recycles them.
func (e *offloadEngine) handle(tid int, res core.Result, c rdma.Completion) {
	if !res.Unexpected {
		e.p.deliverMatch(res.Recv, res.Env)
		e.p.recycleRecv(res.Recv)
	}
	e.release(c)
}

func (e *offloadEngine) post(r *match.Recv) error {
	if len(e.fallbackComms) != 0 && e.fallbackComms[r.Comm] {
		e.fallback.post(r)
		return nil
	}
	env, ok, err := e.matcher.PostRecv(r)
	if err != nil {
		return err
	}
	if ok {
		e.p.deliverMatch(r, env)
		e.p.w.envPool.Put(env)
		e.p.recycleRecv(r)
	}
	return nil
}

func (e *offloadEngine) close() {
	e.pipe.Stop()
	e.acc.Close()
	// The matcher counts under its own locks; with the arrival path stopped,
	// this makes the rank's sink final for whoever loads its counters next.
	e.p.obs.Fold()
}

// ---------------------------------------------------------------------------
// Raw engine: no matching at all (Fig. 8 "RDMA-CPU"). Arrivals complete
// pending receives in FIFO order; source and tag are ignored. Only the
// eager protocol is supported.

type rawEngine struct {
	p     *Proc
	posts chan *match.Recv
	done  chan struct{}
	wg    sync.WaitGroup
}

func newRawEngine(p *Proc) (*rawEngine, error) {
	return &rawEngine{p: p, posts: make(chan *match.Recv, 4096), done: make(chan struct{})}, nil
}

func (e *rawEngine) start() {
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		e.p.drain(e.completeNext)
	}()
}

// completeNext pairs one eager arrival with the next posted receive in
// FIFO order. It reports false when the engine is shutting down.
// Raw mode has no unexpected store: it blocks until a receive is posted.
func (e *rawEngine) completeNext(h header, payload []byte) bool {
	var r *match.Recv
	select {
	case r = <-e.posts:
	case <-e.done:
		return false
	}
	req := r.User.(*Request)
	nc := copy(r.Buffer, payload)
	req.complete(Status{Source: int(h.src), Tag: int(h.tag), Count: nc}, nil)
	e.p.recycleRecv(r)
	return true
}

func (e *rawEngine) post(r *match.Recv) error {
	e.posts <- r
	return nil
}

func (e *rawEngine) close() {
	close(e.done)
	e.p.recvCQ.Close()
	e.wg.Wait()
}

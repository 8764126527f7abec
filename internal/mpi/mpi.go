// Package mpi is a miniature MPI point-to-point layer built on the
// simulated RDMA fabric (package rdma) with pluggable message-matching
// engines: traditional on-host linked-list matching (the paper's MPI-CPU
// baseline), DPA-offloaded optimistic tag matching (the contribution,
// packages core + dpa), and a no-matching raw mode (the RDMA-CPU
// reference). It provides communicators, blocking and non-blocking
// send/receive with MPI wildcard semantics, and the eager and rendezvous
// protocols of §IV-B.
//
// A World is the set of ranks this process hosts of one job, each attached
// to the job's dataplane through an rdma.Transport: the in-process fabric
// (NewWorld, every rank here) or a netfabric socket or shared-memory
// transport (NewNetWorld, one rank here). Nothing above the constructors
// knows which. Incoming messages land in per-rank bounce buffers (NIC
// memory, §IV-A), are matched by the configured engine, and complete either
// by copying the eager payload into the user buffer or by issuing an RDMA
// read to the sender's registered buffer followed by an acknowledgement.
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

// Wildcards, re-exported for the public API.
const (
	// AnySource accepts a message from any rank (MPI_ANY_SOURCE).
	AnySource = int(match.AnySource)
	// AnyTag accepts a message with any tag (MPI_ANY_TAG).
	AnyTag = int(match.AnyTag)
)

// internalComm carries library-internal traffic (barriers) and must not be
// used by applications.
const internalComm = match.CommID(-2)

// EngineKind selects the matching engine of a World.
type EngineKind int

const (
	// EngineHost matches on the host CPU with the traditional two-queue
	// linked-list algorithm — Fig. 8 "MPI-CPU".
	EngineHost EngineKind = iota
	// EngineOffload matches on the simulated DPA with optimistic tag
	// matching — Fig. 8 "Optimistic-DPA".
	EngineOffload
	// EngineRaw performs no matching: messages complete pending receives
	// in FIFO order — Fig. 8 "RDMA-CPU" reference. Only the eager protocol
	// and fully specified receives are meaningful in this mode.
	EngineRaw
)

// String implements fmt.Stringer.
func (k EngineKind) String() string {
	switch k {
	case EngineHost:
		return "host-list"
	case EngineOffload:
		return "offload-optimistic"
	case EngineRaw:
		return "raw-rdma"
	}
	return fmt.Sprintf("EngineKind(%d)", int(k))
}

// Options configures a World.
type Options struct {
	// Engine selects the matching engine (default EngineHost).
	Engine EngineKind
	// EagerLimit is the largest payload sent eagerly (default 1024 bytes);
	// larger messages use the rendezvous protocol.
	EagerLimit int
	// RecvDepth is the number of bounce buffers per rank (default 256).
	RecvDepth int
	// Matcher configures the offload engine (default core.DefaultConfig).
	Matcher core.Config
	// DPA configures the simulated accelerator (offload engine only). Its
	// zero Threads becomes dpa.ThreadsFor(Matcher).
	DPA dpa.Config
	// Faults is the fault plan NewWorld installs on its in-process fabric.
	// An active plan (rdma.FaultPlan with any nonzero rate) arms
	// deterministic fault injection on every link, which makes the fabric
	// report itself unreliable and so enables the reliability sublayer
	// (reliable.go): per-peer sequence numbers, duplicate suppression,
	// reordering repair, and ack/retransmit with capped exponential
	// backoff. The zero plan leaves the fabric lossless and the hot path
	// untouched. NewNetWorld ignores it: a transport it is handed carries
	// its own plan (netfabric.Config.Faults).
	Faults rdma.FaultPlan
	// CoalesceBytes arms sender-side adaptive coalescing of eager messages
	// (coalesce.go): consecutive eager sends toward one destination are
	// aggregated into a single kindEagerBatch wire frame, flushed when the
	// body reaches CoalesceBytes, when the frame holds the wire's
	// maxBatchMsgs sub-messages, at synchronization points (Wait, Barrier,
	// rendezvous, Close), or after coalesceTimeout of staleness. Zero (the
	// default) leaves coalescing off and the wire stream byte-identical to
	// earlier versions.
	CoalesceBytes int
	// CommInfo declares communicator info objects (§IV-E / §VII) ahead of
	// time: matching assertions to propagate to the offloaded engine, and
	// offload opt-outs. Each offloaded declared communicator is budgeted
	// its own table footprint against DPA memory; a communicator that does
	// not fit falls back to software (host) matching, as §IV-E prescribes.
	CommInfo map[int32]CommInfo
	// Obs configures the world's observability sinks: one per rank (shared
	// by that rank's matching engine, datapath, and reliability sublayer)
	// plus one for the fabric's fault injectors. The zero value records
	// counters and histograms only; set Obs.TraceEvents (or use
	// obs.Options{}.Tracing()) to also capture event rings exportable as
	// Chrome trace JSON via ObsSinks + obs.WriteTrace.
	Obs obs.Options
}

// CommInfo mirrors an MPI communicator info object: matching assertions
// (mpi_assert_no_any_source / no_any_tag / allow_overtaking) plus an
// explicit offload opt-out.
type CommInfo struct {
	// Hints are propagated to the offloaded matching engine.
	Hints core.Hints
	// NoOffload forces software (host) tag matching for this communicator.
	NoOffload bool
}

func (o *Options) fill() {
	if o.EagerLimit == 0 {
		o.EagerLimit = 1024
	}
	if o.RecvDepth == 0 {
		o.RecvDepth = 256
	}
	if o.Matcher == (core.Config{}) {
		o.Matcher = core.DefaultConfig()
	}
	if o.DPA.Threads == 0 {
		o.DPA.Threads = dpa.ThreadsFor(o.Matcher)
	}
}

// coalesceArmed reports whether eager coalescing is on.
func (o *Options) coalesceArmed() bool {
	return o.CoalesceBytes > 0
}

// frameCap is the staged-frame (and bounce-buffer) capacity when
// coalescing is armed: at least the byte threshold, and always enough for
// one worst-case eager-limit sub-record so any eligible message fits an
// empty frame.
func (o *Options) frameCap() int {
	body := o.CoalesceBytes
	if min := subRecordSize(o.EagerLimit); body < min {
		body = min
	}
	return headerSize + body
}

// ErrTruncated is reported when a message is longer than the posted buffer.
var ErrTruncated = errors.New("mpi: message truncated (buffer too small)")

// ErrClosed is reported by operations on a closed World: a second Close, a
// Send/Isend/Recv/Irecv issued after Close, and any Wait still blocked when
// Close runs. Long-lived hosts (cmd/matchd) lean on this contract — a
// tenant job torn down mid-flight must observe a typed error, never a hang
// or a panic, and tearing the same world down twice must be harmless.
var ErrClosed = errors.New("mpi: world closed")

// World is the ranks this process hosts of one job: all of them on the
// transports of one rdma.Fabric (NewWorld), or one on a transport that
// carries the wire traffic to peer processes (NewNetWorld).
type World struct {
	opts Options
	n    int // job size; len(procs) of them are hosted here

	// trans holds one transport per hosted rank, consecutive ranks in
	// order; procs[i] runs on trans[i]. The world owns them: Close closes
	// every one, including those a failed start never built a rank on.
	trans []rdma.Transport
	procs []*Proc

	// envPool recycles matching envelopes, each with the backing of its
	// stabilized unexpected payload, across all ranks' arrival paths; slab
	// recycles the variable-length scratch buffers — eager/frame wire
	// staging, reliability retransmit copies — through size-classed pools
	// (slab.go). Together they make the steady-state send and arrival
	// paths allocation-free; recvs recycles irecv's match.Recv records.
	// Pointers: a pool in the World would pin a closed one until the
	// second GC (the runtime registers a pool through its address).
	envPool *match.EnvelopePool
	slab    *slab
	recvs   *sync.Pool

	closeOnce sync.Once
	// isClosed is set and closed is closed at the top of Close, before
	// teardown begins: new operations load isClosed and return ErrClosed,
	// and blocked Request.Wait calls unblock through closed instead of
	// hanging on a request that will never complete.
	isClosed atomic.Bool
	closed   chan struct{}
}

// NewWorld creates n fully connected ranks in this process.
func NewWorld(n int, opts Options) (*World, error) {
	if n < 1 {
		return nil, fmt.Errorf("mpi: world size must be >= 1, got %d", n)
	}
	f := rdma.NewFabric()
	f.SetObs(obs.New(opts.Obs))
	f.SetFaults(opts.Faults)
	return attach(f.Ranks(n), opts)
}

// NewNetWorld creates the local member of an out-of-process world: this
// process hosts exactly one rank (t.Rank() of t.Size()) and all wire
// traffic — eager messages, coalesced kindEagerBatch frames, RTS/ACK
// rendezvous control, reliability sacks — crosses the given transport
// unchanged, byte-for-byte identical to what the in-process fabric carries.
//
// The reliability sublayer arms only over a transport that reports
// t.Reliable() == false; every netfabric transport reports true.
//
// The world owns t from the call on: World.Close closes it, and so does
// every failing return here — the caller never has a transport to clean up.
//
// The world must quiesce before Close — run a final Barrier so no peer
// still expects acknowledgements, exactly as with in-process worlds.
func NewNetWorld(t rdma.Transport, opts Options) (*World, error) {
	if t == nil {
		return nil, fmt.Errorf("mpi: nil transport")
	}
	return attach([]rdma.Transport{t}, opts)
}

// attach is the one constructor body: it builds a rank on each transport
// (consecutive ranks of one job), attaches every rank's receive datapath,
// wires the endpoints, and starts the ranks. It is also the one place that
// cleans up after a failed start: the world owns the transports from the
// first line, and Close releases whatever had been built, engines that
// never started and transports no rank was built on included.
func attach(ts []rdma.Transport, opts Options) (*World, error) {
	opts.fill()
	w := &World{opts: opts, n: ts[0].Size(), trans: ts, closed: make(chan struct{}),
		envPool: new(match.EnvelopePool), slab: new(slab), recvs: &sync.Pool{New: func() any { return new(match.Recv) }}}
	fail := func(err error) (*World, error) {
		w.Close()
		return nil, err
	}
	for i, t := range ts {
		rank := ts[0].Rank() + i
		if t.Size() != w.n || t.Rank() != rank || rank < 0 || rank >= w.n {
			return fail(fmt.Errorf("mpi: transport rank %d of %d out of range", t.Rank(), t.Size()))
		}
		p, err := newProc(w, t)
		if err != nil {
			return fail(err)
		}
		w.procs = append(w.procs, p)
		// Inbound messages consume the rank's bounce buffers and complete
		// on its raw CQ, whatever carries them.
		if err := t.Start(p.srq, p.rawCQ); err != nil {
			return fail(err)
		}
	}
	// Every hosted rank has started, so every endpoint can connect: the
	// full mesh, self-sends included.
	for _, p := range w.procs {
		p.sendEP = make([]rdma.Endpoint, w.n)
		for j := range p.sendEP {
			p.sendEP[j] = p.trans.Endpoint(j)
		}
	}
	for _, p := range w.procs {
		p.start()
	}
	return w, nil
}

// Size returns the number of ranks in the job (across all processes for a
// networked world).
func (w *World) Size() int { return w.n }

// Engine returns the matching engine every rank of the world runs.
func (w *World) Engine() EngineKind { return w.opts.Engine }

// Proc returns the process object for a rank this process hosts.
func (w *World) Proc(rank int) *Proc {
	if !w.Hosts(rank) {
		panic(fmt.Sprintf("mpi: rank %d is not hosted by this process (local ranks %d..%d)",
			rank, w.procs[0].rank, w.procs[0].rank+len(w.procs)-1))
	}
	return w.procs[rank-w.procs[0].rank]
}

// LocalProcs returns the ranks hosted by this process: all of them for an
// in-process world, exactly one for a networked world.
func (w *World) LocalProcs() []*Proc { return w.procs }

// Hosts reports whether rank runs in this process.
func (w *World) Hosts(rank int) bool {
	i := rank - w.procs[0].rank
	return i >= 0 && i < len(w.procs)
}

// Closed reports whether Close has begun. Operations issued afterwards
// return ErrClosed.
func (w *World) Closed() bool { return w.isClosed.Load() }

// Close tears the world down. Call only after all outstanding traffic has
// completed (e.g. after Waitall/Barrier). The first call returns nil; every
// later call is a no-op returning ErrClosed. Requests still blocked in Wait
// when Close runs unblock with ErrClosed rather than hanging — the world
// will never complete them.
func (w *World) Close() error {
	err := ErrClosed
	w.closeOnce.Do(func() {
		err = nil
		w.isClosed.Store(true)
		close(w.closed)
		// Drain the coalescers first (stopping their staleness timers):
		// every buffered eager frame must reach the wire before the QPs
		// close under it.
		for _, p := range w.procs {
			if p.coal != nil {
				p.coal.shutdown()
			}
		}
		// A peer may still be waiting on a rank's last reliable messages
		// (its barrier release, a final ack): hold the wire open until
		// everything pending is acked, bounded. Ranks whose traffic all
		// completed before Close have settled windows and pass straight
		// through.
		for _, p := range w.procs {
			if p.rel != nil {
				p.rel.flush(relFlushTimeout)
			}
		}
		for _, p := range w.procs {
			for _, ep := range p.sendEP {
				ep.Close()
			}
		}
		// Stop the reliability filters before the engines: each filter
		// feeds its engine's CQ and must drain before that CQ closes.
		for _, p := range w.procs {
			if p.rel != nil {
				p.rel.shutdown()
			}
		}
		for _, p := range w.procs {
			p.engine.close()
		}
		// Tear the transports down last, releasing their delivery
		// goroutines (late peer traffic lands on closed CQs, which absorb
		// it harmlessly).
		for _, t := range w.trans {
			_ = t.Close()
		}
	})
	return err
}

// FaultStats returns the dataplane's injected-fault counters.
func (w *World) FaultStats() rdma.FaultSnapshot {
	return rdma.FaultSnapshotOf(w.trans[0].Obs())
}

// ReliabilityStats aggregates the reliability sublayer's counters across
// all ranks; the zero snapshot is returned when faults are inactive.
func (w *World) ReliabilityStats() ReliabilitySnapshot {
	var out ReliabilitySnapshot
	for _, p := range w.procs {
		if p.rel != nil {
			out = out.Add(p.rel.snapshot())
		}
	}
	return out
}

// ObsSinks returns every observability domain of the world — one named
// sink per rank plus the fabric's — ready for obs.WriteJSON or
// obs.WriteTrace.
func (w *World) ObsSinks() []obs.Named {
	out := make([]obs.Named, 0, len(w.procs)+1)
	for _, p := range w.procs {
		out = append(out, obs.Named{Name: fmt.Sprintf("rank%d", p.rank), Sink: p.obs})
	}
	// Ranks hosted together share one dataplane, so one fabric domain.
	out = append(out, obs.Named{Name: "fabric", Sink: w.trans[0].Obs()})
	return out
}

// Totals is what the ranks hosted by one or more finished worlds add up
// to: the offloaded engines' statistics (zero for other engines), the
// dataplanes' injected faults, the repair sublayer's work, and every
// observability sink (one per rank plus one per fabric).
type Totals struct {
	Matcher     core.EngineStats
	Faults      rdma.FaultSnapshot
	Reliability ReliabilitySnapshot
	Sinks       []obs.Named
}

// CloseWorlds closes every non-nil world, concurrently: the members of one
// networked job drain toward each other, so closing them in turn would
// serialize those waits. Close is idempotent, so racing a cancel is fine.
func CloseWorlds(worlds []*World) {
	var wg sync.WaitGroup
	for _, w := range worlds {
		if w == nil {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Close()
		}()
	}
	wg.Wait()
}

// ReleaseWorlds closes the worlds and hands their bounce slabs and matching
// tables to process-wide pools for the next worlds. Precondition: no
// goroutine will call into these worlds again, workload or statistics
// reader. Close cannot do this: a canceled workload's send can pass
// Closed() and still be landing in a bounce buffer while Close runs.
func ReleaseWorlds(worlds []*World) {
	CloseWorlds(worlds)
	for _, w := range worlds {
		if w == nil {
			continue
		}
		for _, p := range w.procs {
			p.srq.Release()
			if m := p.Matcher(); m != nil {
				m.Release()
			}
		}
	}
}

// Quiesce closes the worlds and totals their statistics. Close waits for
// the engines' in-flight blocks to retire, so the counters read here have
// settled (Retires == Blocks) — every workload runner ends with it.
func Quiesce(worlds []*World) Totals {
	CloseWorlds(worlds)
	var t Totals
	for _, w := range worlds {
		for _, p := range w.procs {
			if m := p.Matcher(); m != nil {
				t.Matcher.Add(m.Stats())
			}
		}
		t.Faults = t.Faults.Add(w.FaultStats())
		t.Reliability = t.Reliability.Add(w.ReliabilityStats())
		t.Sinks = append(t.Sinks, w.ObsSinks()...)
	}
	return t
}

// Proc is one rank of a World.
type Proc struct {
	w    *World
	rank int
	n    int

	// trans is the rank's dataplane; sendEP are its endpoints by
	// destination, wired once every hosted rank has started.
	trans  rdma.Transport
	sendEP []rdma.Endpoint
	// rawCQ receives the transport's completions; recvCQ is what the
	// engine drains. They are the same queue on a reliable transport; on
	// an unreliable one the reliability filter sits between them.
	rawCQ  *rdma.CQ
	recvCQ *rdma.CQ
	srq    *rdma.RecvQueue

	engine engine
	rel    *reliability // non-nil only on an unreliable transport
	coal   *coalescer   // non-nil only when coalescing is armed

	// obs is the rank's observability domain, shared by the matching
	// engine, the arrival datapath, and the reliability sublayer (disjoint
	// counter ranges). Always non-nil.
	obs *obs.Sink

	pendMu  sync.Mutex
	pending map[uint64]*pendingSend // rendezvous sends by rkey

	barrierRound atomic.Uint32 // per-proc barrier tag generator
}

// pendingSend tracks an in-flight rendezvous send until its ACK.
type pendingSend struct {
	req *Request
	mr  *rdma.MemoryRegion
	dst int
	tag int
}

func newProc(w *World, t rdma.Transport) (*Proc, error) {
	// The bounce-buffer pool (§IV-A: buffers live in NIC memory), made on
	// first use up to RecvDepth. With coalescing armed, buffers must hold
	// the largest batch frame.
	bufSize := headerSize + w.opts.EagerLimit
	if w.opts.coalesceArmed() {
		bufSize = w.opts.frameCap()
	}
	p := &Proc{
		w:       w,
		rank:    t.Rank(),
		n:       w.n,
		trans:   t,
		recvCQ:  rdma.NewCQ(),
		srq:     rdma.NewBounceQueue(w.opts.RecvDepth, bufSize),
		pending: make(map[uint64]*pendingSend),
		obs:     obs.New(w.opts.Obs),
	}
	p.rawCQ = p.recvCQ
	if !t.Reliable() {
		// Interpose the reliability filter (under an injected fault plan):
		// the transport fills rawCQ, the filter republishes repaired
		// streams onto recvCQ.
		p.rawCQ = rdma.NewCQ()
		p.rel = newReliability(p)
		p.rel.obs = p.obs
	}
	if w.opts.coalesceArmed() {
		p.coal = newCoalescer(p)
	}
	var err error
	switch w.opts.Engine {
	case EngineHost:
		p.engine, err = newHostEngine(p)
	case EngineOffload:
		p.engine, err = newOffloadEngine(p)
	case EngineRaw:
		p.engine, err = newRawEngine(p)
	default:
		err = fmt.Errorf("mpi: unknown engine %v", w.opts.Engine)
	}
	if err != nil {
		return nil, err
	}
	return p, nil
}

func (p *Proc) start() {
	if p.rel != nil {
		p.rel.start()
	}
	if p.coal != nil {
		p.coal.start()
	}
	p.engine.start()
}

// flushCoalesced pushes every buffered eager frame onto the wire. The
// request layer calls it at synchronization points (Wait and friends); it
// is one atomic load when coalescing is off or nothing is buffered.
func (p *Proc) flushCoalesced() {
	if p.coal != nil {
		_ = p.coal.flushAll(flushSync)
	}
}

// Obs returns the rank's observability sink.
func (p *Proc) Obs() *obs.Sink { return p.obs }

// Matcher exposes the offload engine's optimistic matcher for statistics
// and benchmarks; it is nil for other engines.
func (p *Proc) Matcher() *core.OptimisticMatcher {
	if e, ok := p.engine.(*offloadEngine); ok {
		return e.matcher
	}
	return nil
}

// HostStats exposes the host engine's matching statistics; the zero value
// is returned for other engines.
func (p *Proc) HostStats() match.Stats {
	if e, ok := p.engine.(*hostEngine); ok {
		e.list.mu.Lock()
		defer e.list.mu.Unlock()
		return e.list.lm.Stats()
	}
	return match.Stats{}
}

// deliverMatch finishes a matched receive: eager payload copy or rendezvous
// RDMA read + acknowledgement. It runs on a DPA thread (offload engine), on
// the host progress goroutine, or on the posting goroutine when the match
// came from the unexpected store.
func (p *Proc) deliverMatch(r *match.Recv, env *match.Envelope) {
	req := r.User.(*Request)
	st := Status{Source: int(env.Source), Tag: int(env.Tag)}

	if env.SenderKey != 0 { // rendezvous (§IV-B)
		n := env.Size
		if n > len(r.Buffer) {
			req.complete(st, ErrTruncated)
			p.sendAck(int(env.Source), env.SenderKey)
			return
		}
		start := p.obs.Now()
		err := p.trans.Read(int(env.Source), r.Buffer[:n], env.SenderKey, 0, n)
		p.obs.Observe(obs.HistRendezvousReadNs, uint64(p.obs.Now()-start))
		if err == nil {
			st.Count = n
		}
		// Acknowledged whatever the READ said: the sender's request completes
		// on the ACK alone, and a failed READ must not leave it pending.
		p.sendAck(int(env.Source), env.SenderKey)
		req.complete(st, err)
		return
	}

	// Eager: the payload is in the bounce buffer (arrival path) or in the
	// stabilized unexpected copy (posting path).
	if len(env.Data) > len(r.Buffer) {
		copy(r.Buffer, env.Data)
		req.complete(st, ErrTruncated)
		return
	}
	st.Count = copy(r.Buffer, env.Data)
	req.complete(st, nil)
}

// recycleRecv returns a matched receive record to the world's pool. Only
// call it after deliverMatch: a consumed receive is never referenced by the
// matcher again, so the record can back a future irecv.
func (p *Proc) recycleRecv(r *match.Recv) {
	*r = match.Recv{}
	p.w.recvs.Put(r)
}

// sendWire pushes an encoded message toward dst, through the reliability
// sublayer when it is armed (which assigns the sequence number and owns
// retransmission) or straight onto the QP otherwise.
func (p *Proc) sendWire(dst int, wire []byte) error {
	if p.rel != nil {
		return p.rel.send(dst, wire)
	}
	return p.sendEP[dst].Send(wire, 0, 0)
}

// sendAck notifies a sender that its rendezvous data has been read.
func (p *Proc) sendAck(dst int, rkey uint64) {
	var buf [headerSize]byte
	h := header{kind: kindAck, src: int32(p.rank), rkey: rkey}
	h.encode(buf[:])
	// Best effort: a closed world drops the ack.
	_ = p.sendWire(dst, buf[:])
}

// handleAck completes a pending rendezvous send.
func (p *Proc) handleAck(h header) {
	p.pendMu.Lock()
	ps, ok := p.pending[h.rkey]
	delete(p.pending, h.rkey)
	p.pendMu.Unlock()
	if !ok {
		return
	}
	p.trans.Deregister(ps.mr)
	ps.req.complete(Status{Source: ps.dst, Tag: ps.tag, Count: len(ps.mr.Buf)}, nil)
}

// repost returns a bounce buffer to the shared pool at full capacity.
func (p *Proc) repost(buf []byte) {
	p.srq.Post(buf[:cap(buf)], 0)
}

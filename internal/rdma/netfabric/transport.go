package netfabric

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/rdma"
)

// wire is one medium under the transport: tcp.go, udp.go and shm.go each
// implement it, and so does the in-memory loopback below. A wire moves
// encoded frames and nothing else; what a frame means is the transport's
// business.
type wire interface {
	// start brings the medium's links up and begins feeding every inbound
	// frame to transport.arrive. It returns once traffic can flow in both
	// directions.
	start() error
	// send transmits one frame to peer under one of three disciplines (see
	// sendMode): frData goes as sendData or sendControl, frReadReq and
	// frReadResp always as sendRPC. The payload is the caller's and may be
	// reused on return. A peer this wire has no link to (a request can name
	// any rank as its source) is ErrNoReceive, never a fault.
	send(peer int, kind byte, payload []byte, mode sendMode) error
	// reliable reports in-order, exactly-once delivery.
	reliable() bool
	// readPlan shapes chunked READ RPCs carried by this wire; the zero plan
	// means the wire carries none.
	readPlan() readPlan
	// close runs after the transport's done channel has closed: it first
	// flushes every frame staged before that (an eager send "completes"
	// once staged, so a quiescing world's last tokens are still in flight),
	// then tears the links down and waits for the wire's goroutines.
	close()
}

// sendMode is how a frame may treat its sender.
type sendMode uint8

const (
	// sendData is data-plane traffic: on a reliable wire it blocks while
	// the link is saturated; on a lossy one it never blocks, is subject to
	// the fault plan, and surfaces ErrNoReceive for the reliability
	// sublayer to retry through.
	sendData sendMode = iota
	// sendControl never blocks: a saturated link drops the frame and
	// returns ErrNoReceive. Control traffic is idempotent.
	sendControl
	// sendRPC is a READ request or response. It never blocks the caller —
	// the caller may be a pump goroutine, and two ranks each blocked on the
	// other's full queue would deadlock — and a reliable wire never drops it.
	sendRPC
)

// readPlan drives transport.remoteRead over one wire.
type readPlan struct {
	chunk    int           // most region bytes one frReadResp may carry
	window   int           // sub-reads in flight at once
	attempts int           // requests per sub-read before the read fails
	timeout  time.Duration // wait for the first attempt, doubling per retry; 0 waits for the verdict or Close
}

// sendQueueFrames is the depth of every staging queue (the loopback's and
// each TCP peer's): data sends stall, with a CtrNetStalls tally, once a
// peer's queue holds this many frames.
const sendQueueFrames = 512

// transport is the one rdma.Transport of this package. It owns everything
// that does not depend on the medium — identity, the receive pump into the
// RecvQueue/CQ pair, the registered-region and pending-read tables, the
// endpoints, READ — and routes per peer over its wires.
type transport struct {
	rank, n int
	sink    *obs.Sink

	rq *rdma.RecvQueue
	cq *rdma.CQ

	done      chan struct{}
	closeOnce sync.Once

	// reliable: every wire delivers in order, exactly once.
	reliable bool

	// wires start and close in this order.
	wires []wire
	// data[peer] carries Send and SendControl toward peer (the loopback
	// for this rank itself).
	data []wire
	// rpc carries READ requests toward any peer; nil when no wire has a
	// read plan (pure shm).
	rpc wire
	// shm, when set, announces registrations in shared memory and serves
	// READs of same-host owners out of their own memory, with no round trip.
	shm *shmWire

	// Registered memory regions, addressable by peers through frReadReq.
	mrMu    sync.Mutex
	mrs     map[uint64]*rdma.MemoryRegion
	nextKey atomic.Uint64

	// In-flight outbound reads by request ID. completeRead deletes the
	// entry as it signals, so a duplicate response (UDP retry race) finds
	// nothing and is dropped.
	rdMu    sync.Mutex
	reads   map[uint64]*pendingRead
	nextReq uint64

	// framePool recycles encoded frames and payload scratch.
	framePool sync.Pool
}

type pendingRead struct {
	dst  []byte
	done chan error
}

func newTransport(cfg Config) *transport {
	return &transport{
		rank:  cfg.Rank,
		n:     cfg.Ranks,
		sink:  obs.New(cfg.Obs),
		done:  make(chan struct{}),
		data:  make([]wire, cfg.Ranks),
		mrs:   make(map[uint64]*rdma.MemoryRegion),
		reads: make(map[uint64]*pendingRead),
	}
}

// route installs the wires and the per-peer routing table: self-sends over
// the loopback, peers for which local reports true (all of them when local
// is nil) over near, everyone else over far. Either of far and near may be
// absent.
func (t *transport) route(far wire, near *shmWire, local []bool) {
	t.reliable = far == nil || far.reliable() // shm and the loopback always are
	loop := &loopWire{t: t, q: make(chan []byte, sendQueueFrames)}
	t.wires = []wire{loop}
	if far != nil {
		t.wires = append(t.wires, far)
		t.rpc = far
	}
	if near != nil {
		t.wires = append(t.wires, near)
		t.shm = near
	}
	for j := range t.data {
		switch {
		case j == t.rank:
			t.data[j] = loop
		case near != nil && (local == nil || local[j]):
			t.data[j] = near
		default:
			t.data[j] = far
		}
	}
}

func (t *transport) Rank() int      { return t.rank }
func (t *transport) Size() int      { return t.n }
func (t *transport) Obs() *obs.Sink { return t.sink }

func (t *transport) Reliable() bool { return t.reliable }

// Start attaches the receive datapath and starts every wire.
func (t *transport) Start(rq *rdma.RecvQueue, cq *rdma.CQ) error {
	t.rq, t.cq = rq, cq
	for _, w := range t.wires {
		if err := w.start(); err != nil {
			return err
		}
	}
	return nil
}

// Close flips done exactly once, fails every still-pending read so no
// waiter outlives the links, and closes the wires.
func (t *transport) Close() error {
	t.closeOnce.Do(func() {
		close(t.done)
		t.rdMu.Lock()
		for id, pr := range t.reads {
			delete(t.reads, id)
			pr.done <- rdma.ErrClosed
		}
		t.rdMu.Unlock()
		for _, w := range t.wires {
			w.close()
		}
	})
	return nil
}

// frameBuf returns a pooled buffer of at least n bytes, length 0.
func (t *transport) frameBuf(n int) []byte {
	if bp, ok := t.framePool.Get().(*[]byte); ok && cap(*bp) >= n {
		return (*bp)[:0]
	}
	return make([]byte, 0, n)
}

func (t *transport) frameRecycle(buf []byte) {
	f := buf[:0]
	t.framePool.Put(&f)
}

// encode builds one of this rank's frames in a pooled buffer; whoever
// transmits it recycles it.
func (t *transport) encode(kind byte, payload []byte) []byte {
	return appendFrame(t.frameBuf(frameSize(t.rank, len(payload))), kind, t.rank, payload)
}

// ---------------------------------------------------------------------------
// Endpoint

// endpoint is the send side toward one peer: a closed-check and a route
// lookup in front of the peer's wire.
type endpoint struct {
	t    *transport
	peer int
}

// Endpoint returns the send side toward peer, this rank included.
func (t *transport) Endpoint(peer int) rdma.Endpoint {
	if peer < 0 || peer >= t.n {
		return nil
	}
	return endpoint{t, peer}
}

func (e endpoint) Send(data []byte, imm uint32, wrID uint64) error {
	return e.send(data, sendData)
}

func (e endpoint) SendControl(data []byte, imm uint32, wrID uint64) error {
	return e.send(data, sendControl)
}

// send refuses a closed link before anything is staged, for data and
// control alike: a frame queued after Close would sit in a queue nobody
// drains and report success.
func (e endpoint) send(data []byte, mode sendMode) error {
	select {
	case <-e.t.done:
		return rdma.ErrClosed
	default:
	}
	return e.t.data[e.peer].send(e.peer, frData, data, mode)
}

// Close of one endpoint is a no-op; links die with the transport.
func (endpoint) Close() {}

// ---------------------------------------------------------------------------
// Receive pump

// arrive is one step of the receive pump, the only place inbound frames
// are interpreted: it parses the next frame off fr and lands it — data
// into a posted bounce buffer, a READ request against the region table
// (answered over w, the wire it came in on), a READ response into its
// pending read. Stream wires call it in a loop and stop at the first
// error; record wires call it once per record and drop a malformed one.
// rdma.ErrClosed means the transport is shutting down.
func (t *transport) arrive(w wire, fr *frameReader) (frameHeader, error) {
	h, err := fr.readFrameHeader()
	if err != nil {
		return h, err
	}
	// No wire carries this rank's own frames (self-sends take the loopback),
	// so a frame claiming to be from here is stray or forged, like one from
	// outside the job; answering it would address a peer no wire has.
	if h.src >= t.n || h.src == t.rank {
		return h, fr.Discard(h.payloadLen)
	}
	switch h.kind {
	case frData:
		return h, t.deliver(fr, h.payloadLen)
	case frReadReq, frReadResp:
		p := t.frameBuf(h.payloadLen)[:h.payloadLen]
		if err = fr.ReadFull(p); err == nil {
			if h.kind == frReadReq {
				t.serveRead(w, h.src, p)
			} else {
				t.completeRead(p)
			}
		}
		t.frameRecycle(p)
	default: // frHello mid-stream: ignore
		err = fr.Discard(h.payloadLen)
	}
	return h, err
}

// deliver pairs one n-byte message with a posted bounce buffer and
// completes it, with the oversize discipline of the in-process QP: a
// message larger than its buffer is consumed and completes with
// rdma.ErrBufferSize and the unfilled buffer attached, never silently
// truncated. The payload moves from fr straight into the buffer — over TCP
// that is the connection's read buffer, so arrival costs one copy and no
// allocation.
func (t *transport) deliver(fr *frameReader, n int) error {
	buf, wrID, ok := t.rq.Take(t.done)
	if !ok {
		return rdma.ErrClosed
	}
	c := rdma.Completion{Op: rdma.OpRecv, WRID: wrID, Bytes: n, Data: buf[:0]}
	var err error
	if n > len(buf) {
		c.Err = rdma.ErrBufferSize
		err = fr.Discard(n)
	} else {
		c.Data = buf[:n]
		err = fr.ReadFull(c.Data)
	}
	if err != nil {
		return err
	}
	t.cq.Push(c)
	return nil
}

// ---------------------------------------------------------------------------
// Loopback: self-sends never touch a medium. A staging queue plus one
// delivery goroutine keeps them asynchronous (send returns once staged).

type loopWire struct {
	t  *transport
	q  chan []byte
	wg sync.WaitGroup
}

func (l *loopWire) reliable() bool     { return true }
func (l *loopWire) readPlan() readPlan { return readPlan{} }
func (l *loopWire) close()             { l.wg.Wait() }

func (l *loopWire) start() error {
	l.wg.Add(1)
	go l.run()
	return nil
}

// run drains staged self-sends into the receive datapath.
func (l *loopWire) run() {
	defer l.wg.Done()
	var fr frameReader
	for {
		select {
		case p := <-l.q:
			fr.load(p)
			err := l.t.deliver(&fr, len(p))
			l.t.frameRecycle(p)
			if err != nil {
				return
			}
		case <-l.t.done:
			return
		}
	}
}

func (l *loopWire) send(_ int, _ byte, payload []byte, mode sendMode) error {
	buf := append(l.t.frameBuf(len(payload)), payload...)
	if mode == sendData && l.t.reliable { // a lossy transport's data sends must not block
		select {
		case l.q <- buf:
			return nil
		case <-l.t.done:
			l.t.frameRecycle(buf)
			return rdma.ErrClosed
		}
	}
	select {
	case l.q <- buf:
		return nil
	default:
		l.t.frameRecycle(buf)
		return rdma.ErrNoReceive
	}
}

// ---------------------------------------------------------------------------
// Registered memory and READ

// RegisterMemory exposes buf for peer reads under a fresh rkey. The region
// table holds buf itself on every wire; over shared memory its address is
// announced too, so same-host peers copy straight out of it.
func (t *transport) RegisterMemory(buf []byte) *rdma.MemoryRegion {
	mr := &rdma.MemoryRegion{Buf: buf, RKey: t.nextKey.Add(1)}
	t.mrMu.Lock()
	t.mrs[mr.RKey] = mr
	t.mrMu.Unlock()
	if t.shm != nil {
		t.shm.publish(mr.RKey, buf)
	}
	return mr
}

// Deregister revokes a region; later reads fail with rdma.ErrBadKey. The
// announcement goes first: it never names memory the table has let go of.
func (t *transport) Deregister(mr *rdma.MemoryRegion) {
	if t.shm != nil {
		t.shm.unpublish(mr.RKey)
	}
	t.mrMu.Lock()
	delete(t.mrs, mr.RKey)
	t.mrMu.Unlock()
}

// regionSlice resolves (rkey, offset, length) against the local table,
// with the bounds discipline of rdma.Fabric.Read.
func (t *transport) regionSlice(rkey uint64, offset, length int) ([]byte, byte) {
	t.mrMu.Lock()
	mr, ok := t.mrs[rkey]
	t.mrMu.Unlock()
	if !ok {
		return nil, readBadKey
	}
	if offset < 0 || length < 0 || offset+length > len(mr.Buf) {
		return nil, readBadBounds
	}
	return mr.Buf[offset : offset+length], readOK
}

// readError maps a read status to the error Read returns.
func readError(status byte) error {
	switch status {
	case readOK:
		return nil
	case readBadKey:
		return rdma.ErrBadKey
	case readBadBounds:
		return rdma.ErrBounds
	case readTooLarge:
		return rdma.ErrBufferSize
	}
	return fmt.Errorf("netfabric: read status %d", status)
}

// Read satisfies a rendezvous READ by the cheapest route that can resolve
// the rkey: this rank's own regions from the local table, a same-host
// peer's by a direct read out of its memory, anyone else's by chunked READ
// RPCs. ErrBadKey from the direct read only means "not announced there" — a
// peer not attached or not readable, or a full region table — so the read
// falls through to the RPC wire, which has the last word.
func (t *transport) Read(owner int, dst []byte, rkey uint64, offset, length int) error {
	if length != len(dst) {
		return rdma.ErrBounds
	}
	if owner < 0 || owner >= t.n {
		return rdma.ErrBadKey
	}
	if owner == t.rank {
		src, status := t.regionSlice(rkey, offset, length)
		copy(dst, src)
		return readError(status)
	}
	if t.shm != nil {
		if err := t.shm.readDirect(owner, dst, rkey, offset); !errors.Is(err, rdma.ErrBadKey) {
			return err
		}
	}
	if t.rpc == nil {
		return rdma.ErrBadKey
	}
	return t.remoteRead(owner, dst, rkey, offset)
}

// remoteRead round-trips frReadReq exchanges with the owner, driven by the
// rpc wire's plan: dst is split into sub-reads of at most plan.chunk
// bytes, up to plan.window of them in flight at once, so a large read
// costs one round trip plus streaming, not a round trip per chunk. The
// first failure stops further sub-reads from starting.
func (t *transport) remoteRead(owner int, dst []byte, rkey uint64, offset int) error {
	plan := t.rpc.readPlan()
	if len(dst) <= plan.chunk {
		return t.readChunk(plan, owner, dst, rkey, offset)
	}
	errc := make(chan error)
	var firstErr error
	inflight := 0
	for off := 0; ; {
		if firstErr == nil && off < len(dst) && inflight < plan.window {
			sub, at := dst[off:min(off+plan.chunk, len(dst))], offset+off
			go func() { errc <- t.readChunk(plan, owner, sub, rkey, at) }()
			inflight++
			off += plan.chunk
			continue
		}
		if inflight == 0 {
			return firstErr
		}
		if err := <-errc; err != nil && firstErr == nil {
			firstErr = err
		}
		inflight--
	}
}

// readChunk round-trips one sub-read. With a plan timeout the request —
// idempotent, and like its response droppable — is re-sent on a doubling
// timer until a verdict arrives or plan.attempts are spent; without one it
// is sent once and the only other exit is shutdown. The deferred drop
// guarantees the pending-read entry dies with the call on every path, so
// an abandoned read leaks no table space and a late response finds
// nothing to write into.
func (t *transport) readChunk(plan readPlan, owner int, dst []byte, rkey uint64, offset int) error {
	id, pr := t.newPendingRead(dst)
	defer t.dropPendingRead(id)
	var reqBuf [40]byte // four uvarints
	req := appendReadReq(reqBuf[:0], id, rkey, offset, len(dst))
	t.sink.Counters.Inc(obs.CtrNetReadReqs)

	var timer *time.Timer
	var expired <-chan time.Time
	if plan.timeout > 0 {
		timer = time.NewTimer(plan.timeout)
		defer timer.Stop()
		expired = timer.C
	}
	for attempt, wait := 1, plan.timeout; ; attempt, wait = attempt+1, wait*2 {
		if attempt > 1 {
			t.sink.Counters.Inc(obs.CtrNetReadRetries)
			timer.Reset(wait)
		}
		_ = t.rpc.send(owner, frReadReq, req, sendRPC) // a request that fails to leave is a lost one
		select {
		case err := <-pr.done:
			return err
		case <-t.done:
			return rdma.ErrClosed
		case <-expired:
			if attempt == plan.attempts {
				return fmt.Errorf("netfabric: read from rank %d timed out after %d attempts", owner, attempt)
			}
		}
	}
}

// newPendingRead registers an in-flight read and returns its request ID.
func (t *transport) newPendingRead(dst []byte) (uint64, *pendingRead) {
	pr := &pendingRead{dst: dst, done: make(chan error, 1)}
	t.rdMu.Lock()
	t.nextReq++
	id := t.nextReq
	t.reads[id] = pr
	t.rdMu.Unlock()
	return id, pr
}

func (t *transport) dropPendingRead(id uint64) {
	t.rdMu.Lock()
	delete(t.reads, id)
	t.rdMu.Unlock()
}

// completeRead resolves a read response: it detaches the pending entry
// (so duplicates are ignored), copies the data, and signals the waiter.
func (t *transport) completeRead(payload []byte) {
	id, status, data, err := parseReadResp(payload)
	if err != nil {
		return
	}
	t.rdMu.Lock()
	pr, ok := t.reads[id]
	delete(t.reads, id)
	t.rdMu.Unlock()
	if !ok {
		return // duplicate or abandoned
	}
	res := readError(status)
	if status == readOK {
		if len(data) != len(pr.dst) {
			res = rdma.ErrBounds
		} else {
			copy(pr.dst, data)
		}
	}
	pr.done <- res
}

// serveRead answers one frReadReq from rank src over w, the wire the
// request arrived on; w's plan caps how much region data one response may
// carry.
func (t *transport) serveRead(w wire, src int, req []byte) {
	reqID, rkey, offset, length, err := parseReadReq(req)
	if err != nil {
		return
	}
	region, status := t.regionSlice(rkey, offset, length)
	if len(region) > w.readPlan().chunk {
		region, status = nil, readTooLarge
	}
	out := t.frameBuf(uvarintLen(reqID) + 1 + len(region))
	out = binary.AppendUvarint(out, reqID)
	out = append(out, status)
	out = append(out, region...)
	_ = w.send(src, frReadResp, out, sendRPC) // an undeliverable response is a lost one: the reader retries or is closing
	t.frameRecycle(out)
}

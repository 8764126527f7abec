// Package netfabric carries a mini-MPI world over real sockets and shared
// memory, so rank processes run out-of-process with true multi-core
// parallelism. It provides four rdma.Transport implementations behind the
// interface extracted from the in-process fabric:
//
//   - TCP: one connection per unordered rank pair, length-prefixed frames,
//     a per-peer writer goroutine that drains a send queue into batched
//     net.Buffers writev flushes, and pooled frame buffers so the
//     steady-state send and arrival paths allocate nothing. TCP preserves
//     per-peer ordered exactly-once delivery, so it reports Reliable() and
//     the MPI layer runs it exactly like the in-process fabric.
//
//   - UDP: one datagram per frame over a single socket. Datagrams drop,
//     duplicate, and reorder, so the transport reports !Reliable() and the
//     MPI layer interposes its reliability sublayer (sequencing, dedup,
//     reorder repair, ack/retransmit) as the delivery filter — the PR-3
//     machinery becomes load-bearing. A deterministic rdma.FaultPlan can
//     additionally be armed on the send path to force repairs at any rate.
//
//   - shm (shm.go): mmap-backed per-peer-pair SPSC ring buffers carrying
//     the same frame codec, with an adaptive spin-then-park wait, for
//     co-located ranks. Rendezvous registrations live in a per-rank shared
//     arena, so a same-host READ is a direct bounds-checked memcpy from
//     the owner's segment — zero round trips.
//
//   - hybrid (hybrid.go): consults the coordinator's host map and routes
//     each peer over shm (same host) or TCP (cross host).
//
// The rendezvous protocol's one-sided READ becomes a request/response
// exchange (frReadReq/frReadResp) against the owner's registered-region
// table; over UDP the idempotent request retries on a timeout; reads
// larger than one frame are split into pipelined sub-reads.
//
// Rank/address rendezvous at startup is a tiny JSON-lines coordinator
// (coord.go); Launch (launch.go) re-executes the current binary once per
// rank for the msgrate/replay multi-process mode.
package netfabric

import (
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/rdma"
)

// Config parameterizes one rank's transport.
type Config struct {
	// Network selects the transport: "tcp", "udp", "shm", or "hybrid".
	Network string
	// Rank and Ranks identify this process within the job.
	Rank, Ranks int
	// Coord is the coordinator address for rank/address exchange; New
	// blocks until every rank has registered (the startup barrier).
	Coord string
	// Listen is the local bind address (default "127.0.0.1:0").
	Listen string
	// Faults arms deterministic datagram faults on the UDP send path
	// (drop, duplicate, delay — rdma.FaultPlan rates, keyed per peer).
	// Ignored for TCP, which models a reliable transport.
	Faults rdma.FaultPlan
	// Obs configures the transport's observability sink (the "fabric"
	// domain of the world's export).
	Obs obs.Options
	// SendQueue is the per-peer send-queue depth (default 512 frames);
	// data sends stall (with a CtrNetStalls tally) when it fills.
	SendQueue int
	// ReadTimeout is the per-attempt rendezvous read-retry timeout over
	// UDP (default 20ms, up to readAttempts tries).
	ReadTimeout time.Duration
	// Host names the machine this rank runs on, for hybrid locality
	// routing (default os.Hostname()). Tests and -sim-hosts override it
	// to simulate a multi-host topology on one machine.
	Host string
	// ShmDir is where shm segment files are created (default the system
	// temp dir). Peers on the same host must see the same filesystem.
	ShmDir string
	// ShmRing is the per-sender ring data capacity in bytes (default
	// 2 MiB — comfortably above the 1 MiB frame cap; min 64 KiB).
	ShmRing int
	// ShmArena is the shared rendezvous arena size in bytes (default
	// 64 MiB, backed by a sparse file so untouched pages cost nothing;
	// min 1 MiB).
	ShmArena int
}

func (c *Config) fill() error {
	switch c.Network {
	case "tcp", "udp", "shm", "hybrid":
	default:
		return fmt.Errorf("netfabric: network %q, want tcp, udp, shm, or hybrid", c.Network)
	}
	if c.Ranks < 1 || c.Rank < 0 || c.Rank >= c.Ranks {
		return fmt.Errorf("netfabric: rank %d of %d out of range", c.Rank, c.Ranks)
	}
	if c.Coord == "" {
		return fmt.Errorf("netfabric: missing coordinator address")
	}
	if c.Listen == "" {
		c.Listen = "127.0.0.1:0"
	}
	if c.SendQueue <= 0 {
		c.SendQueue = 512
	}
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = 20 * time.Millisecond
	}
	if c.ShmDir == "" {
		c.ShmDir = os.TempDir()
	}
	if c.ShmRing <= 0 {
		c.ShmRing = 2 << 20
	}
	if c.ShmRing < 64<<10 {
		return fmt.Errorf("netfabric: shm ring %d bytes, min %d", c.ShmRing, 64<<10)
	}
	if c.ShmArena <= 0 {
		c.ShmArena = 64 << 20
	}
	if c.ShmArena < 1<<20 {
		return fmt.Errorf("netfabric: shm arena %d bytes, min %d", c.ShmArena, 1<<20)
	}
	return nil
}

// New builds the transport for one rank: it binds a local socket,
// registers with the coordinator, and blocks until every rank of the job
// has done the same — the startup barrier. Peer links are established by
// Start (mpi.NewNetWorld calls it once the receive datapath exists).
func New(cfg Config) (rdma.Transport, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	switch cfg.Network {
	case "udp":
		return newUDP(cfg)
	case "shm":
		return newShm(cfg)
	case "hybrid":
		return newHybrid(cfg)
	default:
		return newTCP(cfg)
	}
}

// PendingReadCount reports the transport's in-flight outbound rendezvous
// reads — a test hook for the pending-read leak assertions. Transports
// not built by this package report 0.
func PendingReadCount(tr rdma.Transport) int {
	if c, ok := tr.(interface{ pendingReadCount() int }); ok {
		return c.pendingReadCount()
	}
	return 0
}

// base is the transport state shared by TCP and UDP: identity, the
// receive datapath, the registered-region table, the pending-read table,
// and the pooled frame buffers.
type base struct {
	rank, n int
	sink    *obs.Sink

	rq *rdma.RecvQueue
	cq *rdma.CQ

	done      chan struct{}
	closeOnce sync.Once

	// Registered memory regions, addressable by peers through frReadReq.
	mrMu    sync.Mutex
	mrs     map[uint64]*rdma.MemoryRegion
	nextKey uint64

	// In-flight outbound reads by request ID. completeRead deletes the
	// entry as it signals, so a duplicate response (UDP retry race) finds
	// nothing and is dropped.
	rdMu    sync.Mutex
	reads   map[uint64]*pendingRead
	nextReq uint64

	// framePool recycles encoded frame staging buffers (send path) and
	// scratch (UDP receive path).
	framePool sync.Pool
}

type pendingRead struct {
	dst  []byte
	done chan error
}

func newBase(cfg Config) base {
	return base{
		rank:    cfg.Rank,
		n:       cfg.Ranks,
		sink:    obs.New(cfg.Obs),
		done:    make(chan struct{}),
		mrs:     make(map[uint64]*rdma.MemoryRegion),
		nextKey: 1,
		reads:   make(map[uint64]*pendingRead),
	}
}

func (b *base) Rank() int      { return b.rank }
func (b *base) Size() int      { return b.n }
func (b *base) Obs() *obs.Sink { return b.sink }

// frameBuf returns a pooled buffer of at least n bytes, length 0.
func (b *base) frameBuf(n int) []byte {
	if bp, ok := b.framePool.Get().(*[]byte); ok && cap(*bp) >= n {
		return (*bp)[:0]
	}
	return make([]byte, 0, n)
}

func (b *base) frameRecycle(buf []byte) {
	f := buf[:0]
	b.framePool.Put(&f)
}

// RegisterMemory exposes buf for peer reads under a fresh rkey.
func (b *base) RegisterMemory(buf []byte) *rdma.MemoryRegion {
	b.mrMu.Lock()
	defer b.mrMu.Unlock()
	mr := &rdma.MemoryRegion{Buf: buf, RKey: b.nextKey}
	b.nextKey++
	b.mrs[mr.RKey] = mr
	return mr
}

// Deregister revokes a region; later reads fail with rdma.ErrBadKey.
func (b *base) Deregister(mr *rdma.MemoryRegion) {
	b.mrMu.Lock()
	defer b.mrMu.Unlock()
	delete(b.mrs, mr.RKey)
}

// adoptRegion publishes a region registered elsewhere (the hybrid
// transport's shm arena) under its existing rkey, so this transport's
// READ RPC path can serve it too.
func (b *base) adoptRegion(mr *rdma.MemoryRegion) {
	b.mrMu.Lock()
	defer b.mrMu.Unlock()
	b.mrs[mr.RKey] = mr
}

// regionSlice resolves (rkey, offset, length) against the local table,
// with the bounds discipline of rdma.Fabric.Read.
func (b *base) regionSlice(rkey uint64, offset, length int) ([]byte, byte) {
	b.mrMu.Lock()
	mr, ok := b.mrs[rkey]
	b.mrMu.Unlock()
	if !ok {
		return nil, readBadKey
	}
	if offset < 0 || length < 0 || offset+length > len(mr.Buf) {
		return nil, readBadBounds
	}
	return mr.Buf[offset : offset+length], readOK
}

// localRead serves a same-rank read without touching the wire.
func (b *base) localRead(dst []byte, rkey uint64, offset, length int) error {
	src, status := b.regionSlice(rkey, offset, length)
	switch status {
	case readBadKey:
		return rdma.ErrBadKey
	case readBadBounds:
		return rdma.ErrBounds
	}
	copy(dst, src)
	return nil
}

// newPendingRead registers an in-flight read and returns its request ID.
func (b *base) newPendingRead(dst []byte) (uint64, *pendingRead) {
	pr := &pendingRead{dst: dst, done: make(chan error, 1)}
	b.rdMu.Lock()
	b.nextReq++
	id := b.nextReq
	b.reads[id] = pr
	b.rdMu.Unlock()
	return id, pr
}

func (b *base) dropPendingRead(id uint64) {
	b.rdMu.Lock()
	delete(b.reads, id)
	b.rdMu.Unlock()
}

// pendingReadCount backs the PendingReadCount test hook.
func (b *base) pendingReadCount() int {
	b.rdMu.Lock()
	defer b.rdMu.Unlock()
	return len(b.reads)
}

// completeRead resolves a read response: it detaches the pending entry
// (so duplicates are ignored), copies the data, and signals the waiter.
func (b *base) completeRead(payload []byte) {
	id, status, data, err := parseReadResp(payload)
	if err != nil {
		return
	}
	b.rdMu.Lock()
	pr, ok := b.reads[id]
	delete(b.reads, id)
	b.rdMu.Unlock()
	if !ok {
		return // duplicate or abandoned
	}
	var res error
	switch status {
	case readOK:
		if len(data) != len(pr.dst) {
			res = rdma.ErrBounds
		} else {
			copy(pr.dst, data)
		}
	case readBadKey:
		res = rdma.ErrBadKey
	case readBadBounds:
		res = rdma.ErrBounds
	case readTooLarge:
		res = rdma.ErrBufferSize
	default:
		res = fmt.Errorf("netfabric: read status %d", status)
	}
	pr.done <- res
}

// serveReadPayload builds the frReadResp payload answering req. cap limits
// how much region data one response may carry (the UDP datagram budget;
// <= 0 means unlimited).
func (b *base) serveReadPayload(req []byte, cap int) ([]byte, bool) {
	reqID, rkey, offset, length, err := parseReadReq(req)
	if err != nil {
		return nil, false
	}
	src, status := b.regionSlice(rkey, offset, length)
	if status == readOK && cap > 0 && len(src) > cap {
		src, status = nil, readTooLarge
	}
	out := b.frameBuf(uvarintLen(reqID) + 1 + len(src))
	out = appendUvarint(out, reqID)
	out = append(out, status)
	out = append(out, src...)
	return out, true
}

// appendUvarint is a local alias so serveReadPayload reads clearly.
func appendUvarint(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

// deliverBytes pairs one received message payload with a posted bounce
// buffer and completes it, mirroring QP.deliver's oversize discipline: a
// message larger than its buffer produces an error completion carrying
// rdma.ErrBufferSize, never a silent truncation. Reports false only when
// the transport is shutting down.
func (b *base) deliverBytes(p []byte) bool {
	buf, wrID, ok := b.rq.Take(b.done)
	if !ok {
		return false
	}
	if len(p) > len(buf) {
		b.cq.Push(rdma.Completion{
			Op: rdma.OpRecv, WRID: wrID, Bytes: len(p), Data: buf[:0], Err: rdma.ErrBufferSize,
		})
		return true
	}
	n := copy(buf, p)
	b.cq.Push(rdma.Completion{Op: rdma.OpRecv, WRID: wrID, Bytes: n, Data: buf[:n]})
	return true
}

// markClosed flips the transport's done channel exactly once and fails
// every still-pending read, so no waiter outlives the links.
func (b *base) markClosed() (first bool) {
	b.closeOnce.Do(func() {
		first = true
		close(b.done)
		b.rdMu.Lock()
		for id, pr := range b.reads {
			delete(b.reads, id)
			pr.done <- rdma.ErrClosed
		}
		b.rdMu.Unlock()
	})
	return first
}

// noteStall tallies one saturated-queue data send.
func (b *base) noteStall(peer, bytes int) {
	b.sink.Counters.Inc(obs.CtrNetStalls)
	if b.sink.Enabled() {
		b.sink.Event(obs.EvNetStall, peer, uint64(peer), uint64(bytes), 0)
	}
}

// ---------------------------------------------------------------------------
// Loopback endpoint: self-sends never touch the socket. A small staging
// channel plus one delivery goroutine keeps self-sends asynchronous (Send
// returns once the payload is staged).

type loopEndpoint struct {
	b        *base
	reliable bool
	wire     chan []byte
	once     sync.Once
}

func newLoopback(b *base, reliable bool, depth int) *loopEndpoint {
	l := &loopEndpoint{b: b, reliable: reliable, wire: make(chan []byte, depth)}
	return l
}

// run drains staged self-sends into the receive datapath.
func (l *loopEndpoint) run() {
	for {
		select {
		case p := <-l.wire:
			ok := l.b.deliverBytes(p)
			l.b.frameRecycle(p)
			if !ok {
				return
			}
		case <-l.b.done:
			return
		}
	}
}

func (l *loopEndpoint) Send(data []byte, imm uint32, wrID uint64) error {
	buf := append(l.b.frameBuf(len(data)), data...)
	if l.reliable {
		select {
		case l.wire <- buf:
			return nil
		case <-l.b.done:
			l.b.frameRecycle(buf)
			return rdma.ErrClosed
		}
	}
	select {
	case l.wire <- buf:
		return nil
	case <-l.b.done:
		l.b.frameRecycle(buf)
		return rdma.ErrClosed
	default:
		// Lossy transport: surface backpressure instead of blocking; the
		// reliability sublayer retries.
		l.b.frameRecycle(buf)
		return rdma.ErrNoReceive
	}
}

func (l *loopEndpoint) SendControl(data []byte, imm uint32, wrID uint64) error {
	buf := append(l.b.frameBuf(len(data)), data...)
	select {
	case l.wire <- buf:
		return nil
	default:
		l.b.frameRecycle(buf)
		return rdma.ErrNoReceive
	}
}

func (l *loopEndpoint) Close() {}

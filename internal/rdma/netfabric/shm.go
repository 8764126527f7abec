package netfabric

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/obs"
	"repro/internal/rdma"
)

// The shm wire carries co-located ranks over mmap'd shared memory instead
// of loopback sockets. Each rank owns one segment file:
//
//	header    | 4 KiB: magic, version, geometry — validated on attach
//	rings     | n × (128 B control + shmRingBytes data): inbound SPSC ring
//	          |   j is written by rank j's process and drained only by the
//	          |   owner's poll goroutine (shmring.go)
//	regions   | 1024 × 24 B slots {rkey, offset, length}: the published
//	          |   rendezvous region table
//	arena     | shmArenaBytes: rendezvous payload staging
//
// Sends stage an encoded frame (frame.go) into the destination's ring for
// this sender; the destination's poll goroutine spins over its inbound
// rings with a bounded busy-poll and falls back to timed sleeps when idle
// (the spin-then-park protocol — on a time-shared core a hot spin would
// starve the very peer it is waiting for), handing each record to the
// transport's pump.
//
// Beyond the wire interface it offers the transport two things no socket
// can. publish copies a rendezvous buffer into the owner's arena and
// announces {rkey, offset, length} in the region table, rkey last with a
// release store; readDirect then resolves an rkey against the owner's
// mapped segment and memcpys the bytes out — the READ RPC round-trip
// disappears. unpublish withdraws the rkey before freeing the arena span,
// and readDirect re-checks it after reading the geometry, so a torn lookup
// can only miss (ErrBadKey), never read freed bytes as valid.
type shmWire struct {
	t *transport

	seg   *shmSegment // this rank's own segment
	peers []*shmPeer  // by rank; nil = self or a peer not attached over shm

	// mapMu guards the mappings against munmap: send/readDirect hold it
	// shared, close takes it exclusively after the done channel stops new
	// work.
	mapMu sync.RWMutex

	// Arena + region-table bookkeeping for this rank's own registrations.
	regMu     sync.Mutex
	arenaFree []arenaSpan
	slotUsed  []bool
	slotNext  int
	regions   map[uint64]shmRegion

	wg sync.WaitGroup
}

// shmRegion remembers where an arena-staged registration landed.
type shmRegion struct{ slot, off, n int }

type arenaSpan struct{ off, n int }

const (
	// shmRingBytes is each sender's ring data capacity: comfortably above
	// the 1 MiB frame cap.
	shmRingBytes = 2 << 20
	// shmArenaBytes is the shared rendezvous arena, backed by a sparse file
	// so untouched pages cost nothing.
	shmArenaBytes = 64 << 20

	shmMagic        = 0x524550524f53484d // "REPROSHM"
	shmVersion      = 1
	shmHeaderBytes  = 4096
	regionSlots     = 1024
	regionSlotBytes = 24

	// shmSpinBudget bounds the busy-poll phase (spinYield iterations) of
	// both the poll loop and a full-ring sender before they fall back to
	// timed sleeps.
	shmSpinBudget = 512
	// parkMin/parkMax bound the timed-sleep backoff once parked.
	shmParkMin = 50 * time.Microsecond
	shmParkMax = time.Millisecond
	// shmArenaWait bounds how long RegisterMemory waits for arena space
	// before falling back to a heap region.
	shmArenaWait = 2 * time.Second
)

// spinYield is one iteration of the busy-poll phase: an in-process
// Gosched first (this process's own engine goroutines share one P with
// the poller and must keep running), then a kernel sched_yield so a peer
// rank *process* time-sharing the core gets scheduled too. Gosched alone
// returns immediately once this process has nothing else runnable and
// would burn the whole kernel timeslice without ever letting the peer
// run; the sched_yield hands the core over, and the caller resumes as
// soon as the peer blocks or yields in turn — futex-like wakeup latency
// without a futex.
func spinYield() {
	runtime.Gosched()
	syscall.Syscall(syscall.SYS_SCHED_YIELD, 0, 0, 0)
}

// spinPark is the adaptive wait of both the poll loop and a full-ring
// sender: shmSpinBudget spinYields, then timed sleeps doubling from
// shmParkMin to shmParkMax. The zero value is a fresh wait.
type spinPark struct {
	spins int
	sleep time.Duration // 0 until parked
}

// pause waits one step and reports whether it was the step that parked.
func (b *spinPark) pause() (parked bool) {
	if b.spins < shmSpinBudget {
		b.spins++
		spinYield()
		return false
	}
	if parked = b.sleep == 0; parked {
		b.sleep = shmParkMin
	}
	time.Sleep(b.sleep)
	if b.sleep < shmParkMax {
		b.sleep *= 2
	}
	return parked
}

// ---------------------------------------------------------------------------
// Segment: create / attach / layout

type shmSegment struct {
	path  string
	mem   []byte
	owner bool
	n     int // ranks: one inbound ring each
}

func shmSegmentSize(n int) int {
	return shmHeaderBytes + n*(ringCtrlBytes+shmRingBytes) + regionSlots*regionSlotBytes + shmArenaBytes
}

// shmHeader is what the owner writes at the front of its segment and every
// attaching peer checks: two builds that disagree on the geometry must
// fail at start-up, not corrupt each other's rings.
func shmHeader(n int) [5]uint64 {
	return [5]uint64{shmMagic, shmVersion, uint64(n), shmRingBytes, shmArenaBytes}
}

// createShmSegment builds and maps this rank's own segment file. The file
// is sized with Truncate, so it is sparse: pages cost memory only once
// touched.
func createShmSegment(dir string, rank, n int) (*shmSegment, error) {
	f, err := os.CreateTemp(dir, fmt.Sprintf("repro-shm-r%d-*.seg", rank))
	if err != nil {
		return nil, fmt.Errorf("netfabric: create shm segment: %w", err)
	}
	path := f.Name()
	size := shmSegmentSize(n)
	if err := f.Truncate(int64(size)); err != nil {
		f.Close()
		os.Remove(path)
		return nil, fmt.Errorf("netfabric: size shm segment: %w", err)
	}
	mem, err := syscall.Mmap(int(f.Fd()), 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	f.Close() // the mapping keeps the pages; the fd is no longer needed
	if err != nil {
		os.Remove(path)
		return nil, fmt.Errorf("netfabric: mmap shm segment: %w", err)
	}
	for i, v := range shmHeader(n) {
		binary.LittleEndian.PutUint64(mem[i*8:], v)
	}
	return &shmSegment{path: path, mem: mem, owner: true, n: n}, nil
}

// openShmSegment attaches to a peer's segment, validating the geometry
// this rank expects against the header the owner wrote before
// registering with the coordinator.
func openShmSegment(path string, n int) (*shmSegment, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("netfabric: open peer shm segment: %w", err)
	}
	size := shmSegmentSize(n)
	st, err := f.Stat()
	if err == nil && st.Size() != int64(size) {
		err = fmt.Errorf("netfabric: peer shm segment %s is %d bytes, want %d", path, st.Size(), size)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	mem, merr := syscall.Mmap(int(f.Fd()), 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	f.Close()
	if merr != nil {
		return nil, fmt.Errorf("netfabric: mmap peer shm segment: %w", merr)
	}
	for i, w := range shmHeader(n) {
		if got := binary.LittleEndian.Uint64(mem[i*8:]); got != w {
			syscall.Munmap(mem)
			return nil, fmt.Errorf("netfabric: peer shm segment %s header[%d]=%#x, want %#x", path, i, got, w)
		}
	}
	return &shmSegment{path: path, mem: mem, n: n}, nil
}

// ring returns the inbound ring written by sender (laid over this
// segment's memory).
func (s *shmSegment) ring(sender int) (*shmRing, error) {
	off := shmHeaderBytes + sender*(ringCtrlBytes+shmRingBytes)
	return ringAt(s.mem[off : off+ringCtrlBytes+shmRingBytes])
}

// regionSlot is one published rendezvous region: rkey, arena offset,
// length, each a cross-process atomic.
type regionSlot struct{ key, off, size *atomic.Uint64 }

func (s *shmSegment) slot(i int) regionSlot {
	base := shmHeaderBytes + s.n*(ringCtrlBytes+shmRingBytes) + i*regionSlotBytes
	return regionSlot{
		key:  (*atomic.Uint64)(unsafe.Pointer(&s.mem[base])),
		off:  (*atomic.Uint64)(unsafe.Pointer(&s.mem[base+8])),
		size: (*atomic.Uint64)(unsafe.Pointer(&s.mem[base+16])),
	}
}

func (s *shmSegment) arena() []byte {
	start := shmHeaderBytes + s.n*(ringCtrlBytes+shmRingBytes) + regionSlots*regionSlotBytes
	return s.mem[start : start+shmArenaBytes]
}

// readRegion serves a zero-round-trip rendezvous read against this
// segment's published region table: find the rkey, bounds-check, memcpy.
// The rkey is re-checked after the geometry loads so a concurrent
// unpublish can only turn into ErrBadKey, never a stale-bytes success
// presented as current.
func (s *shmSegment) readRegion(dst []byte, rkey uint64, offset int) error {
	if rkey == 0 {
		return rdma.ErrBadKey
	}
	if offset < 0 {
		return rdma.ErrBounds
	}
	length := uint64(len(dst))
	arena := s.arena()
	for i := 0; i < regionSlots; i++ {
		sl := s.slot(i)
		if sl.key.Load() != rkey {
			continue
		}
		roff, rlen := sl.off.Load(), sl.size.Load()
		if sl.key.Load() != rkey {
			return rdma.ErrBadKey // unpublished mid-lookup
		}
		if uint64(offset)+length > rlen {
			return rdma.ErrBounds
		}
		start := roff + uint64(offset)
		if start+length > uint64(len(arena)) {
			return rdma.ErrBounds
		}
		copy(dst, arena[start:start+length])
		return nil
	}
	return rdma.ErrBadKey
}

func (s *shmSegment) close() {
	syscall.Munmap(s.mem)
	s.mem = nil
	if s.owner {
		os.Remove(s.path)
	}
}

// ---------------------------------------------------------------------------
// Wire

// shmPeer is one attached peer: its mapped segment and this rank's
// producer side of the inbound ring there. mu serializes this rank's
// senders onto the ring, whose single-producer contract is per process,
// not per goroutine.
type shmPeer struct {
	seg  *shmSegment
	ring *shmRing
	mu   sync.Mutex
}

// newShm builds the pure shared-memory wire: create own segment,
// rendezvous segment paths through the coordinator, attach every peer.
func newShm(t *transport, cfg Config) (*shmWire, error) {
	seg, err := createShmSegment(cfg.ShmDir, cfg.Rank, cfg.Ranks)
	if err != nil {
		return nil, err
	}
	book, err := registerHello(cfg.Coord, coordHello{
		Rank: cfg.Rank, Ranks: cfg.Ranks, Addr: seg.path, Shm: seg.path,
	})
	if err != nil {
		seg.close()
		return nil, err
	}
	return newShmWire(t, seg, book.Shms, nil)
}

// newShmWire assembles the wire around an already-registered own segment,
// which it owns from here on (a failed attach closes it). mask, when
// non-nil, limits which peers are attached (hybrid passes its same-host
// map).
func newShmWire(t *transport, seg *shmSegment, paths []string, mask []bool) (*shmWire, error) {
	w := &shmWire{
		t:         t,
		seg:       seg,
		peers:     make([]*shmPeer, t.n),
		arenaFree: []arenaSpan{{0, shmArenaBytes}},
		slotUsed:  make([]bool, regionSlots),
		regions:   make(map[uint64]shmRegion),
	}
	fail := func(err error) (*shmWire, error) {
		w.unmap()
		return nil, err
	}
	if len(paths) != t.n {
		return fail(fmt.Errorf("netfabric: shm book has %d segments, want %d", len(paths), t.n))
	}
	for j, path := range paths {
		if j == t.rank || (mask != nil && !mask[j]) {
			continue
		}
		if path == "" {
			return fail(fmt.Errorf("netfabric: rank %d announced no shm segment", j))
		}
		ps, err := openShmSegment(path, t.n)
		if err != nil {
			return fail(err)
		}
		w.peers[j] = &shmPeer{seg: ps}
		if w.peers[j].ring, err = ps.ring(t.rank); err != nil {
			return fail(err)
		}
	}
	return w, nil
}

// unmap releases every mapping; the owner's segment file goes with it.
func (w *shmWire) unmap() {
	for _, p := range w.peers {
		if p != nil {
			p.seg.close()
		}
	}
	w.seg.close()
}

func (w *shmWire) reliable() bool     { return true }
func (w *shmWire) readPlan() readPlan { return readPlan{} } // READs go through readDirect, not an RPC

func (w *shmWire) start() error {
	w.wg.Add(1)
	go w.poll()
	return nil
}

func (w *shmWire) close() {
	w.wg.Wait()
	w.mapMu.Lock()
	defer w.mapMu.Unlock()
	w.unmap()
}

// poll is the consumer side: it drains every inbound ring of this rank's
// own segment into the pump, spinning while work arrives and parking when
// all rings stay empty past the spin budget.
func (w *shmWire) poll() {
	defer w.wg.Done()
	t := w.t
	c := &t.sink.Counters
	scratch := make([]byte, shmRingBytes)
	var rings []*shmRing
	for j, p := range w.peers {
		if p == nil {
			continue
		}
		r, err := w.seg.ring(j)
		if err != nil {
			return // geometry was validated at construction; unreachable
		}
		rings = append(rings, r)
	}
	var fr frameReader
	var wait spinPark
	for {
		progress := false
		for _, r := range rings {
			for {
				rec, ok, err := r.tryRead(scratch)
				if err != nil || !ok {
					break // torn records are unreachable with well-behaved peers
				}
				progress = true
				fr.load(rec)
				h, err := t.arrive(w, &fr)
				if errors.Is(err, rdma.ErrClosed) {
					return
				}
				if err == nil {
					c.Inc(obs.CtrShmRxFrames)
					c.Add(obs.CtrShmRxBytes, uint64(h.payloadLen))
				}
			}
		}
		if progress {
			if wait.spins > 0 && wait.sleep == 0 {
				c.Inc(obs.CtrShmSpinWakes)
			}
			wait = spinPark{}
			continue
		}
		select {
		case <-t.done:
			return
		default:
		}
		if wait.pause() {
			c.Inc(obs.CtrShmParks)
		}
	}
}

// send stages one frame into the peer's ring. On a full ring a data frame
// enters the same adaptive wait the poll loop uses — on a shared core the
// consumer needs this core to drain the ring — and anything else, which
// must not block, reports ErrNoReceive.
func (w *shmWire) send(peer int, kind byte, payload []byte, mode sendMode) error {
	t, p := w.t, w.peers[peer]
	if p == nil {
		return rdma.ErrNoReceive
	}
	if size := frameSize(t.rank, len(payload)); !p.ring.fits(size) {
		return fmt.Errorf("netfabric: %d-byte frame exceeds shm ring capacity", size)
	}
	buf := t.encode(kind, payload)
	defer t.frameRecycle(buf)

	w.mapMu.RLock()
	defer w.mapMu.RUnlock()
	p.mu.Lock()
	defer p.mu.Unlock()
	var wait spinPark
	for {
		select {
		case <-t.done: // checked under mapMu: past here the ring stays mapped
			return rdma.ErrClosed
		default:
		}
		if p.ring.tryWrite(buf) {
			t.sink.Counters.Inc(obs.CtrShmTxFrames)
			t.sink.Counters.Add(obs.CtrShmTxBytes, uint64(len(buf)))
			return nil
		}
		if mode != sendData {
			return rdma.ErrNoReceive
		}
		if wait.spins == 0 {
			t.sink.Counters.Inc(obs.CtrShmRingFull) // the consumer is behind
		}
		wait.pause()
	}
}

// ---------------------------------------------------------------------------
// Rendezvous: arena staging and zero-round-trip reads

// publish copies buf into this rank's shared arena, announces it in the
// segment's region table under rkey and returns the arena copy. The copy
// is safe because rendezvous buffers are stable between Isend's
// registration and the completing ACK; handing the arena slice back as the
// region's Buf keeps the MPI layer's len(mr.Buf) accounting exact. A
// buffer the arena cannot take (oversize, or still full after
// shmArenaWait) is returned as it is: same-host peers then miss it in the
// table and, under hybrid, fetch it over the TCP READ RPC.
func (w *shmWire) publish(rkey uint64, buf []byte) []byte {
	n := len(buf)
	off, slot, ok := w.reserve(n)
	if !ok {
		return buf
	}
	arena := w.seg.arena()
	copy(arena[off:off+n], buf)
	sl := w.seg.slot(slot)
	sl.off.Store(uint64(off))
	sl.size.Store(uint64(n))
	sl.key.Store(rkey) // release: publish last, so readers see full geometry
	w.regMu.Lock()
	w.regions[rkey] = shmRegion{slot: slot, off: off, n: n}
	w.regMu.Unlock()
	return arena[off : off+n : off+n]
}

// reserve carves n bytes from the arena and claims a region slot,
// waiting (in 1ms ticks, bounded by shmArenaWait) for space held by
// in-flight rendezvous to free up.
func (w *shmWire) reserve(n int) (off, slot int, ok bool) {
	if n > shmArenaBytes {
		return 0, 0, false
	}
	deadline := time.Now().Add(shmArenaWait)
	for {
		w.regMu.Lock()
		if off, ok = w.arenaAlloc(n); ok {
			if slot, ok = w.takeSlot(); ok {
				w.regMu.Unlock()
				return off, slot, true
			}
			w.arenaRelease(off, n)
		}
		w.regMu.Unlock()
		select {
		case <-w.t.done:
			return 0, 0, false
		default:
		}
		if time.Now().After(deadline) {
			return 0, 0, false
		}
		time.Sleep(time.Millisecond)
	}
}

// arenaSpanBytes is what an n-byte registration occupies: spans are 8-byte
// aligned so arena slices inherit usable alignment.
func arenaSpanBytes(n int) int { return max(8, (n+7)&^7) }

// arenaAlloc is a first-fit allocator over the sorted free-span list.
// Callers hold regMu.
func (w *shmWire) arenaAlloc(n int) (int, bool) {
	need := arenaSpanBytes(n)
	for i, sp := range w.arenaFree {
		if sp.n < need {
			continue
		}
		off := sp.off
		if sp.n == need {
			w.arenaFree = append(w.arenaFree[:i], w.arenaFree[i+1:]...)
		} else {
			w.arenaFree[i] = arenaSpan{sp.off + need, sp.n - need}
		}
		return off, true
	}
	return 0, false
}

// arenaRelease returns a span, coalescing with neighbors. Callers hold
// regMu and pass the original length.
func (w *shmWire) arenaRelease(off, n int) {
	need := arenaSpanBytes(n)
	i := 0
	for i < len(w.arenaFree) && w.arenaFree[i].off < off {
		i++
	}
	w.arenaFree = append(w.arenaFree, arenaSpan{})
	copy(w.arenaFree[i+1:], w.arenaFree[i:])
	w.arenaFree[i] = arenaSpan{off, need}
	if i+1 < len(w.arenaFree) && off+need == w.arenaFree[i+1].off {
		w.arenaFree[i].n += w.arenaFree[i+1].n
		w.arenaFree = append(w.arenaFree[:i+1], w.arenaFree[i+2:]...)
	}
	if i > 0 && w.arenaFree[i-1].off+w.arenaFree[i-1].n == off {
		w.arenaFree[i-1].n += w.arenaFree[i].n
		w.arenaFree = append(w.arenaFree[:i], w.arenaFree[i+1:]...)
	}
}

// takeSlot claims a free region-table slot. Callers hold regMu.
func (w *shmWire) takeSlot() (int, bool) {
	for i := 0; i < regionSlots; i++ {
		s := (w.slotNext + i) % regionSlots
		if !w.slotUsed[s] {
			w.slotUsed[s] = true
			w.slotNext = s + 1
			return s, true
		}
	}
	return 0, false
}

// unpublish withdraws the rkey first (peers immediately see ErrBadKey)
// and only then frees the arena span for reuse. An rkey that was never
// staged here is not this wire's to withdraw.
func (w *shmWire) unpublish(rkey uint64) {
	w.regMu.Lock()
	reg, ok := w.regions[rkey]
	delete(w.regions, rkey)
	w.regMu.Unlock()
	if !ok {
		return
	}
	w.seg.slot(reg.slot).key.Store(0)
	w.regMu.Lock()
	w.arenaRelease(reg.off, reg.n)
	w.slotUsed[reg.slot] = false
	w.regMu.Unlock()
}

// readDirect resolves (owner, rkey) against the owner's mapped segment —
// same host, so the "remote" arena is plain addressable memory and the
// whole rendezvous READ is one bounds-checked memcpy. An owner whose
// segment is not mapped here reads as ErrBadKey.
func (w *shmWire) readDirect(owner int, dst []byte, rkey uint64, offset int) error {
	w.mapMu.RLock()
	defer w.mapMu.RUnlock()
	select {
	case <-w.t.done:
		return rdma.ErrClosed
	default:
	}
	seg := w.seg
	if owner != w.t.rank {
		if w.peers[owner] == nil {
			return rdma.ErrBadKey
		}
		seg = w.peers[owner].seg
	}
	if err := seg.readRegion(dst, rkey, offset); err != nil {
		return err
	}
	w.t.sink.Counters.Inc(obs.CtrShmReads)
	return nil
}

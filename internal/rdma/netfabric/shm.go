package netfabric

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
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
//	header    | 4 KiB: magic, version, geometry (validated on attach), then
//	          |   the owner's pid, the address of its probe word, and the
//	          |   closed word the owner sets at an orderly close
//	rings     | n × (128 B control + shmRingBytes data): inbound SPSC ring
//	          |   j is written by rank j's process and drained only by the
//	          |   owner's poll goroutine (shmring.go)
//	regions   | 1024 × 24 B slots {rkey, address, length}: the published
//	          |   rendezvous region table
//
// Sends stage an encoded frame (frame.go) into the destination's ring for
// this sender; the destination's poll goroutine spins over its inbound
// rings with a bounded busy-poll and falls back to timed sleeps when idle
// (the spin-then-park protocol — on a time-shared core a hot spin would
// starve the very peer it is waiting for), handing each record to the
// transport's pump. While parked it also watches its peers: one whose
// segment is not marked closed and whose probe word no longer answers has
// died, and becomes one rdma.ErrPeerLost completion on the CQ.
//
// Beyond the wire interface it offers the transport single-copy rendezvous,
// which no socket can. publish announces a registered buffer where it lies,
// {rkey, address, length} in the region table with the rkey release-stored
// last; readDirect resolves an rkey against the owner's mapped table and
// copies the bytes straight out of the owner's memory with
// process_vm_readv (vmread_linux.go): no staging copy, no READ RPC.
// unpublish withdraws the rkey, and readRegion checks it again after the
// copy, so a read that raced a deregistration is ErrBadKey, never foreign
// bytes presented as current.
type shmWire struct {
	t *transport

	seg   *shmSegment // this rank's own segment
	peers []*shmPeer  // by rank; nil = self or a peer not attached over shm

	// mapMu guards the mappings against munmap: send/readDirect hold it
	// shared, close takes it exclusively after the done channel stops new
	// work.
	mapMu sync.RWMutex

	// regMu serializes this rank's publishers over its own region table.
	regMu sync.Mutex

	wg sync.WaitGroup
}

const (
	// shmRingBytes is each sender's ring data capacity: comfortably above
	// the 1 MiB frame cap.
	shmRingBytes = 2 << 20

	shmMagic        = 0x524550524f53484d // "REPROSHM"
	shmVersion      = 3
	shmHeaderBytes  = 4096
	regionSlots     = 1024
	regionSlotBytes = 24

	// Header words past the geometry: who owns the segment, a word of the
	// owner's own memory (holding shmMagic) for the attach probe, and the
	// word the owner sets to 1 before it unmaps at an orderly close.
	shmHeaderPid    = 4 * 8
	shmHeaderProbe  = 5 * 8
	shmHeaderClosed = 6 * 8

	// shmScratchMin is what a poller's record scratch starts at; it grows
	// to the largest record it has held.
	shmScratchMin = 64 << 10
	// shmProbeEvery spaces a parked poller's probes of its peers.
	shmProbeEvery = 10 * time.Millisecond

	// shmSpinBudget bounds the busy-poll phase (spinYield iterations) of
	// both the poll loop and a full-ring sender before they fall back to
	// timed sleeps.
	shmSpinBudget = 512
	// parkMin/parkMax bound the timed-sleep backoff once parked.
	shmParkMin = 50 * time.Microsecond
	shmParkMax = time.Millisecond
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
	slots []regionSlot // the region table, laid over mem's tail

	pid       int     // the owning process
	probe     *uint64 // owner: a word of its own memory holding shmMagic
	probeAddr uintptr // peer: where in pid's memory that word lies
}

func shmSegmentSize(n int) int {
	return shmHeaderBytes + n*(ringCtrlBytes+shmRingBytes) + regionSlots*regionSlotBytes
}

// shmGeometry is what the owner writes at the front of its segment and
// every attaching peer checks: two builds that disagree on the layout must
// fail at start-up, not corrupt each other's rings.
func shmGeometry(n int) [4]uint64 {
	return [4]uint64{shmMagic, shmVersion, uint64(n), shmRingBytes}
}

// segmentPid is the pid a new segment's header announces. Tests substitute
// a dead one to see every attach refused.
var segmentPid = os.Getpid

// mapShmSegment maps f as a segment of n ranks and lays the region table
// over its tail. The mapping keeps the pages; f can be closed. Readahead is
// off: a fault on a ring would otherwise bring in the pages around it (on
// a disk file system up to the device's readahead, the whole ring), which
// a ring that rewinds never touches.
func mapShmSegment(f *os.File, n int) (*shmSegment, error) {
	size := shmSegmentSize(n)
	mem, err := syscall.Mmap(int(f.Fd()), 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return nil, err
	}
	syscall.Madvise(mem, syscall.MADV_RANDOM) // advice only: a refusal costs memory, not correctness
	table := mem[size-regionSlots*regionSlotBytes:]
	return &shmSegment{path: f.Name(), mem: mem,
		slots: unsafe.Slice((*regionSlot)(unsafe.Pointer(&table[0])), regionSlots)}, nil
}

// createShmSegment builds and maps this rank's own segment file, after
// clearing dir of segments whose owners died and opening this process to
// its peers' reads. The file is sized with Truncate, so it is sparse: pages
// cost memory only once touched.
func createShmSegment(dir string, rank, n int) (*shmSegment, error) {
	reclaimStaleSegments(dir)
	allowPeerReads()
	f, err := os.CreateTemp(dir, fmt.Sprintf("repro-shm-r%d-*.seg", rank))
	if err != nil {
		return nil, fmt.Errorf("netfabric: create shm segment: %w", err)
	}
	defer f.Close()
	if err := f.Truncate(int64(shmSegmentSize(n))); err != nil {
		os.Remove(f.Name())
		return nil, fmt.Errorf("netfabric: size shm segment: %w", err)
	}
	s, err := mapShmSegment(f, n)
	if err != nil {
		os.Remove(f.Name())
		return nil, fmt.Errorf("netfabric: mmap shm segment: %w", err)
	}
	s.owner, s.pid, s.probe = true, segmentPid(), new(uint64)
	*s.probe = shmMagic
	binary.LittleEndian.PutUint64(s.mem[shmHeaderPid:], uint64(s.pid))
	binary.LittleEndian.PutUint64(s.mem[shmHeaderProbe:], uint64(uintptr(unsafe.Pointer(s.probe))))
	geom := shmGeometry(n)
	for i := len(geom) - 1; i >= 0; i-- { // the magic last: a header that has it is whole
		binary.LittleEndian.PutUint64(s.mem[i*8:], geom[i])
	}
	return s, nil
}

// reclaimStaleSegments removes the segment files in dir that a crashed rank
// left behind: those whose header is this build's and names a pid that no
// longer exists. A live owner's file, or one that cannot be read as a
// segment, is left alone.
func reclaimStaleSegments(dir string) {
	paths, _ := filepath.Glob(filepath.Join(dir, "repro-shm-r*-*.seg"))
	for _, path := range paths {
		var h [shmHeaderPid + 8]byte
		f, err := os.Open(path)
		if err != nil {
			continue
		}
		_, err = io.ReadFull(f, h[:])
		f.Close()
		pid := int(binary.LittleEndian.Uint64(h[shmHeaderPid:]))
		if err == nil && binary.LittleEndian.Uint64(h[:]) == shmMagic &&
			binary.LittleEndian.Uint64(h[8:]) == shmVersion &&
			pid > 0 && syscall.Kill(pid, 0) == syscall.ESRCH {
			os.Remove(path)
		}
	}
}

// openShmSegment attaches to a peer's segment, validating the geometry
// this rank expects against the header the owner wrote before
// registering with the coordinator.
func openShmSegment(path string, n int) (*shmSegment, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("netfabric: open peer shm segment: %w", err)
	}
	defer f.Close()
	if st, err := f.Stat(); err != nil {
		return nil, err
	} else if size := shmSegmentSize(n); st.Size() != int64(size) {
		return nil, fmt.Errorf("netfabric: peer shm segment %s is %d bytes, want %d", path, st.Size(), size)
	}
	s, err := mapShmSegment(f, n)
	if err != nil {
		return nil, fmt.Errorf("netfabric: mmap peer shm segment: %w", err)
	}
	for i, w := range shmGeometry(n) {
		if got := binary.LittleEndian.Uint64(s.mem[i*8:]); got != w {
			s.close()
			return nil, fmt.Errorf("netfabric: peer shm segment %s header[%d]=%#x, want %#x", path, i, got, w)
		}
	}
	s.pid = int(binary.LittleEndian.Uint64(s.mem[shmHeaderPid:]))
	s.probeAddr = uintptr(binary.LittleEndian.Uint64(s.mem[shmHeaderProbe:]))
	return s, nil
}

// ring returns the inbound ring written by sender (laid over this
// segment's memory).
func (s *shmSegment) ring(sender int) (*shmRing, error) {
	off := shmHeaderBytes + sender*(ringCtrlBytes+shmRingBytes)
	return ringAt(s.mem[off : off+ringCtrlBytes+shmRingBytes])
}

// regionSlot is one published rendezvous region, each word a cross-process
// atomic: the buffer's address and length in the owner's memory, stored
// before the rkey that announces them. A zero key is a free slot.
type regionSlot struct{ key, addr, size atomic.Uint64 }

// lookup probes the table for key, starting at rkey's home slot. A
// publisher looks for a free slot (key 0) from there and a reader for the
// rkey itself, so the reader's first probe hits unless the table is crowded.
func (s *shmSegment) lookup(rkey, key uint64) *regionSlot {
	for i, at := 0, int(rkey%regionSlots); i < regionSlots; i, at = i+1, (at+1)%regionSlots {
		if sl := &s.slots[at]; sl.key.Load() == key {
			return sl
		}
	}
	return nil
}

func (s *shmSegment) refused(errno syscall.Errno) error {
	scope := "absent"
	if b, err := os.ReadFile("/proc/sys/kernel/yama/ptrace_scope"); err == nil {
		scope = strings.TrimSpace(string(b))
	}
	return &DirectReadError{Segment: s.path, Pid: s.pid, Errno: errno, PtraceScope: scope}
}

// probeOwner reads the owner's probe word out of its memory: the attach-time
// proof that readRegion will be allowed to. A pid that answers with other
// bytes is some other process here, not the owner.
func (s *shmSegment) probeOwner() error {
	var word [8]byte
	errno := vmRead(s.pid, word[:], s.probeAddr)
	if errno == 0 && binary.LittleEndian.Uint64(word[:]) != shmMagic {
		errno = syscall.ESRCH
	}
	if errno != 0 {
		return s.refused(errno)
	}
	return nil
}

// closedWord is the header word the owner sets before it unmaps.
func (s *shmSegment) closedWord() *atomic.Uint64 {
	return (*atomic.Uint64)(unsafe.Pointer(&s.mem[shmHeaderClosed]))
}

// lost reports whether a peer's owner died without closing: its segment is
// not marked closed and its probe word does not answer. The closed word is
// read again after a failed probe, because an owner that closed meanwhile
// may have let the word go.
func (s *shmSegment) lost() bool {
	return s.closedWord().Load() == 0 && s.probeOwner() != nil && s.closedWord().Load() == 0
}

// readRegion serves a rendezvous read against this segment's published
// region table: find the rkey, bounds-check, and copy out of the owner's
// memory. The rkey is checked once after the geometry loads, so a torn
// lookup can only miss, and once more after the copy: a deregistration
// that raced it may have let the owner reuse the buffer, and those bytes
// must not be presented as the region's.
func (s *shmSegment) readRegion(dst []byte, rkey uint64, offset int) error {
	if rkey == 0 {
		return rdma.ErrBadKey
	}
	if offset < 0 {
		return rdma.ErrBounds
	}
	sl := s.lookup(rkey, rkey)
	if sl == nil {
		return rdma.ErrBadKey
	}
	addr, size := sl.addr.Load(), sl.size.Load()
	if sl.key.Load() != rkey {
		return rdma.ErrBadKey // unpublished mid-lookup
	}
	if uint64(offset)+uint64(len(dst)) > size {
		return rdma.ErrBounds
	}
	switch errno := vmRead(s.pid, dst, uintptr(addr)+uintptr(offset)); errno {
	case 0:
	case syscall.ESRCH:
		return rdma.ErrPeerLost
	case syscall.EPERM, syscall.ENOSYS:
		return s.refused(errno)
	default: // EFAULT: unpublished, and the memory went with it
		return rdma.ErrBadKey
	}
	if sl.key.Load() != rkey {
		return rdma.ErrBadKey
	}
	return nil
}

func (s *shmSegment) close() {
	if s.owner {
		s.closedWord().Store(1) // peers stop watching before the probe word goes
	}
	syscall.Munmap(s.mem)
	s.mem, s.slots = nil, nil
	if s.owner {
		os.Remove(s.path)
	}
}

// ---------------------------------------------------------------------------
// Wire

// shmPeer is one attached peer: its mapped segment and this rank's
// producer side of the inbound ring there. mu serializes this rank's
// senders onto the ring, whose single-producer contract is per process,
// not per goroutine. refusal is why the peer's memory cannot be read
// directly (nil: it can); its rings carry frames either way.
type shmPeer struct {
	seg     *shmSegment
	ring    *shmRing
	mu      sync.Mutex
	refusal error
}

// newShm builds the pure shared-memory wire: create own segment,
// rendezvous segment paths through the coordinator, attach every peer. With
// no other wire to carry a READ, a peer that refuses direct reads fails the
// transport here rather than every rendezvous later.
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
	w, err := newShmWire(t, seg, book.Shms, nil)
	if err != nil {
		return nil, err
	}
	for _, p := range w.peers {
		if p != nil && p.refusal != nil {
			w.unmap()
			return nil, p.refusal
		}
	}
	return w, nil
}

// newShmWire assembles the wire around an already-registered own segment,
// which it owns from here on (a failed attach closes it). mask, when
// non-nil, limits which peers are attached (hybrid passes its same-host
// map).
func newShmWire(t *transport, seg *shmSegment, paths []string, mask []bool) (*shmWire, error) {
	w := &shmWire{t: t, seg: seg, peers: make([]*shmPeer, t.n)}
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
		w.peers[j] = &shmPeer{seg: ps, refusal: ps.probeOwner()}
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
// all rings stay empty past the spin budget. Parked, it probes the peers
// whose memory it can read every shmProbeEvery; a lost one's ring is
// drained of what the peer published before it died, reported once as an
// rdma.ErrPeerLost completion carrying its rank in Imm, and not polled
// again.
func (w *shmWire) poll() {
	defer w.wg.Done()
	t := w.t
	c := &t.sink.Counters
	scratch := make([]byte, shmScratchMin)
	type inbound struct {
		rank int
		ring *shmRing
		peer *shmPeer
	}
	var in []inbound
	for j, p := range w.peers {
		if p == nil {
			continue
		}
		r, err := w.seg.ring(j)
		if err != nil {
			return // geometry was validated at construction; unreachable
		}
		in = append(in, inbound{j, r, p})
	}
	var fr frameReader
	// drain hands r's published records to the pump; closed means the
	// transport is shutting down.
	drain := func(r *shmRing) (progress, closed bool) {
		for {
			rec, ok, err := r.tryRead(&scratch)
			if err != nil || !ok {
				return progress, false // torn records are unreachable with well-behaved peers
			}
			progress = true
			fr.load(rec)
			h, err := t.arrive(w, &fr)
			if errors.Is(err, rdma.ErrClosed) {
				return progress, true
			}
			if err == nil {
				c.Inc(obs.CtrShmRxFrames)
				c.Add(obs.CtrShmRxBytes, uint64(h.payloadLen))
			}
		}
	}
	var wait spinPark
	var probed time.Time
	for {
		progress := false
		for _, ib := range in {
			got, closed := drain(ib.ring)
			if closed {
				return
			}
			progress = progress || got
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
		if wait.sleep == 0 || time.Since(probed) < shmProbeEvery {
			continue
		}
		probed = time.Now()
		for i := 0; i < len(in); {
			ib := in[i]
			if ib.peer.refusal != nil || !ib.peer.seg.lost() {
				i++
				continue
			}
			if _, closed := drain(ib.ring); closed {
				return
			}
			t.peerLost(ib.rank)
			in = append(in[:i], in[i+1:]...)
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
// Rendezvous: in-place publication and single-copy reads

// pin holds the mappings in place for the caller, who releases mapMu's read
// side when done; false means the wire is closing and they may be gone.
func (w *shmWire) pin() bool {
	w.mapMu.RLock()
	select {
	case <-w.t.done:
		w.mapMu.RUnlock()
		return false
	default:
		return true
	}
}

// publish announces buf, where it lies, in this rank's region table under
// rkey. Nothing is copied: the transport's region table keeps buf
// reachable until unpublish, heap objects do not move, and rendezvous
// buffers are stable between Isend's registration and the completing ACK.
// With all 1024 slots taken the region goes unannounced: same-host peers
// miss it in the table and, under hybrid, fetch it over the TCP READ RPC.
func (w *shmWire) publish(rkey uint64, buf []byte) {
	if !w.pin() {
		return
	}
	defer w.mapMu.RUnlock()
	w.regMu.Lock()
	defer w.regMu.Unlock()
	sl := w.seg.lookup(rkey, 0)
	if sl == nil {
		return
	}
	sl.addr.Store(uint64(uintptr(unsafe.Pointer(unsafe.SliceData(buf)))))
	sl.size.Store(uint64(len(buf)))
	sl.key.Store(rkey) // release: publish last, so readers see full geometry
}

// unpublish withdraws the rkey: peers see ErrBadKey from here on, and a
// read already copying sees it at its final check.
func (w *shmWire) unpublish(rkey uint64) {
	if !w.pin() {
		return
	}
	defer w.mapMu.RUnlock()
	if sl := w.seg.lookup(rkey, rkey); sl != nil {
		sl.key.Store(0)
	}
}

// readDirect resolves (owner, rkey) against the owner's mapped region table
// and copies the bytes out of the owner's memory: the whole rendezvous READ
// is one lookup and one process_vm_readv. The call is made whatever
// process hosts the owner, this one included, so every job takes the path
// a multi-process job takes. An owner whose segment is not mapped here, or
// whose memory the kernel will not show, reads as ErrBadKey.
func (w *shmWire) readDirect(owner int, dst []byte, rkey uint64, offset int) error {
	if !w.pin() {
		return rdma.ErrClosed
	}
	defer w.mapMu.RUnlock()
	p := w.peers[owner]
	if p == nil || p.refusal != nil {
		return rdma.ErrBadKey
	}
	if err := p.seg.readRegion(dst, rkey, offset); err != nil {
		return err
	}
	w.t.sink.Counters.Inc(obs.CtrShmReads)
	return nil
}

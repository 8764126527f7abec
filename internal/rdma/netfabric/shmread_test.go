package netfabric_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/rdma"
	"repro/internal/rdma/netfabric"
)

// Single-copy rendezvous over shm: a registration announces the caller's
// buffer where it lies, and a READ copies out of the owner's memory.

// startShmPair is two started shm transports hosted by this process.
func startShmPair(t *testing.T) (owner, reader *confRank) {
	t.Helper()
	ranks, errs := startTransports(t, "shm", 2, nil)
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	return ranks[0], ranks[1]
}

func TestShmRegisterPublishesInPlace(t *testing.T) {
	owner, reader := startShmPair(t)
	const size = 1 << 20
	buf := make([]byte, size)
	for i := range buf {
		buf[i] = byte(i * 13)
	}
	mr := owner.tr.RegisterMemory(buf)
	if len(mr.Buf) != size || &mr.Buf[0] != &buf[0] {
		t.Fatalf("region of %d bytes at %p is not the caller's %d bytes at %p", len(mr.Buf), &mr.Buf[0], size, &buf[0])
	}
	// The peer reads the buffer itself: a change made after registration
	// is what it sees.
	buf[size-1] = 0xee
	dst := make([]byte, size)
	if err := reader.tr.Read(0, dst, mr.RKey, 0, size); err != nil || !bytes.Equal(dst, buf) {
		t.Fatalf("read of the registered buffer: err %v, equal %v", err, bytes.Equal(dst, buf))
	}
	owner.tr.Deregister(mr)

	var before, after runtime.MemStats
	const regs = 100
	runtime.ReadMemStats(&before)
	for i := 0; i < regs; i++ {
		owner.tr.Deregister(owner.tr.RegisterMemory(buf))
	}
	runtime.ReadMemStats(&after)
	// TotalAlloc is the whole process's: leave room for a poller's scratch
	// buffer allocated meanwhile, none for a copy per registration.
	if per := (after.TotalAlloc - before.TotalAlloc) / regs; per > size/8 {
		t.Errorf("registering %d bytes allocates %d bytes, want a region record and no copy", size, per)
	}
	if got, rings := netfabric.ShmSegmentBytes(2), 2*(2<<20); got < rings || got > rings+(64<<10) {
		t.Errorf("a 2-rank segment is %d bytes, want two 2 MiB rings, a header and a slot table", got)
	}
}

// crossPattern is region i of rank's registrations in
// TestShmReadAcrossProcesses.
func crossPattern(rank, i, n int) []byte {
	b := make([]byte, n)
	for j := range b {
		b[j] = byte(j*7 + j>>9 + rank*101 + i*37)
	}
	return b
}

var crossSizes = []int{1, 256 << 10, 1<<20 - 1, 1<<20 + 1}

// crossRead is one rank of TestShmReadAcrossProcesses: register a region of
// each size, swap rkeys with the peer over the ring, read every region of
// the peer and an offset sub-range of one, and keep the own regions
// registered until the peer has done the same. peerGone, when non-nil,
// closes if the peer's process exits.
func crossRead(rank int, coord, dir string, peerGone <-chan struct{}) error {
	tr, err := netfabric.New(netfabric.Config{Network: "shm", Rank: rank, Ranks: 2, Coord: coord, ShmDir: dir})
	if err != nil {
		return err
	}
	defer tr.Close()
	rq, cq := rdma.NewRecvQueue(4), rdma.NewCQ()
	if err := tr.Start(rq, cq); err != nil {
		return err
	}
	rq.Post(make([]byte, 64), 0)
	rq.Post(make([]byte, 64), 1)
	// The peer may exit as soon as its last send returns, while that frame
	// still sits in the ring for this rank's poller: its exit opens a grace
	// period of a second to deliver what was sent, not a failure.
	const grace = time.Second
	recv := func(k uint64) ([]byte, error) {
		gone := false
		for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			if cq.Ready() > k {
				var c [1]rdma.Completion
				cq.WaitBatch(k, c[:])
				return c[0].Data, c[0].Err
			}
			if gone {
				continue
			}
			select {
			case <-peerGone:
				gone, deadline = true, time.Now().Add(grace)
			default:
			}
		}
		if gone {
			return nil, fmt.Errorf("rank %d: peer exited and message %d did not arrive within %v", rank, k, grace)
		}
		return nil, fmt.Errorf("rank %d: message %d never arrived", rank, k)
	}

	peer := 1 - rank
	keys := make([]byte, 8*len(crossSizes))
	mrs := make([]*rdma.MemoryRegion, len(crossSizes))
	for i, n := range crossSizes {
		mrs[i] = tr.RegisterMemory(crossPattern(rank, i, n))
		binary.LittleEndian.PutUint64(keys[8*i:], mrs[i].RKey)
	}
	if err := tr.Endpoint(peer).Send(keys, 0, 0); err != nil {
		return err
	}
	theirs, err := recv(0)
	if err != nil || len(theirs) != len(keys) {
		return fmt.Errorf("rank %d: rkeys from peer: %d bytes, err %v", rank, len(theirs), err)
	}
	for i, n := range crossSizes {
		rkey, want, dst := binary.LittleEndian.Uint64(theirs[8*i:]), crossPattern(peer, i, n), make([]byte, n)
		if err := tr.Read(peer, dst, rkey, 0, n); err != nil || !bytes.Equal(dst, want) {
			return fmt.Errorf("rank %d: read of rank %d's %d-byte region: err %v, equal %v", rank, peer, n, err, bytes.Equal(dst, want))
		}
		if n > 20000 {
			if err := tr.Read(peer, dst[:1000], rkey, 12345, 1000); err != nil || !bytes.Equal(dst[:1000], want[12345:13345]) {
				return fmt.Errorf("rank %d: sub-range read of rank %d's %d-byte region: err %v", rank, peer, n, err)
			}
		}
	}
	if got := tr.Obs().Counters.Load(obs.CtrShmReads); got != 7 {
		return fmt.Errorf("rank %d: %d direct reads counted, want 7", rank, got)
	}
	if got := tr.Obs().Counters.Load(obs.CtrNetReadReqs); got != 0 {
		return fmt.Errorf("rank %d: %d READ RPCs on a pure shm transport", rank, got)
	}
	if err := tr.Endpoint(peer).Send([]byte("done"), 0, 0); err != nil {
		return err
	}
	if _, err := recv(1); err != nil {
		return err
	}
	for _, mr := range mrs {
		tr.Deregister(mr)
	}
	return nil
}

const crossPeerEnv = "NETFABRIC_SHM_CROSS_PEER" // "<coordinator> <shm dir>": run as rank 1

// TestShmReadAcrossProcesses is the path a real job takes: rank 1 is this
// test binary run again, and each rank reads the other's registered
// buffers out of the other process's memory.
func TestShmReadAcrossProcesses(t *testing.T) {
	if peer := os.Getenv(crossPeerEnv); peer != "" {
		var coord, dir string
		fmt.Sscan(peer, &coord, &dir)
		var refused *netfabric.DirectReadError
		if err := crossRead(1, coord, dir, nil); errors.As(err, &refused) {
			t.Skip(err)
		} else if err != nil {
			t.Fatal(err)
		}
		return
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go netfabric.ServeCoordinator(ln, 2)
	dir := t.TempDir()

	cmd := exec.Command(os.Args[0], "-test.run=^TestShmReadAcrossProcesses$", "-test.v")
	cmd.Env = append(os.Environ(), crossPeerEnv+"="+ln.Addr().String()+" "+dir)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	gone, childErr := make(chan struct{}), error(nil)
	go func() {
		childErr = cmd.Wait()
		close(gone)
	}()

	err = crossRead(0, ln.Addr().String(), dir, gone)
	select {
	case <-gone:
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		<-gone
	}
	var refused *netfabric.DirectReadError
	if errors.As(err, &refused) || bytes.Contains(out.Bytes(), []byte("--- SKIP")) {
		t.Skipf("direct reads refused here: rank 0: %v; rank 1:\n%s", err, out.Bytes())
	}
	if err != nil || childErr != nil {
		t.Fatalf("rank 0: %v; rank 1: %v\n%s", err, childErr, out.Bytes())
	}
}

// TestShmReadRacesDeregister: a reader loops Read while the owner
// deregisters, scribbles over the buffer and registers it again under the
// next rkey. The rest of the table is full, so every registration lands in
// the same slot. Whatever the interleaving, a read that reports success
// delivered exactly the bytes registered under the rkey it asked for.
func TestShmReadRacesDeregister(t *testing.T) {
	owner, reader := startShmPair(t)
	const slots, size = 1024, 256 << 10
	filler := make([]byte, 8)
	var last uint64 // the newest rkey; they are consecutive
	for i := 0; i < slots-1; i++ {
		last = owner.tr.RegisterMemory(filler).RKey
	}

	var current atomic.Uint64 // the rkey registered now; byte(rkey) fills its buffer
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		bufs := [2][]byte{make([]byte, size), make([]byte, size)}
		var mr *rdma.MemoryRegion
		for i := 0; ; i++ {
			// Filled before it is registered: until then the buffer is the
			// owner's alone.
			buf := bufs[i%2]
			for j := range buf {
				buf[j] = byte(last + 1)
			}
			next := owner.tr.RegisterMemory(buf)
			if next.RKey != last+1 {
				panic("rkeys are not consecutive")
			}
			last = next.RKey
			current.Store(last)
			if mr != nil {
				owner.tr.Deregister(mr)
				for j := range mr.Buf { // reuse what was just withdrawn
					mr.Buf[j] ^= 0xff
				}
			}
			mr = next
			select {
			case <-stop:
				return
			default:
			}
		}
	}()

	dst := make([]byte, size)
	var ok, badKey int
	for deadline := time.Now().Add(300 * time.Millisecond); time.Now().Before(deadline) || ok == 0; {
		rkey := current.Load()
		if rkey == 0 {
			runtime.Gosched()
			continue
		}
		switch err := reader.tr.Read(0, dst, rkey, 0, size); {
		case err == nil:
			ok++
			for i, b := range dst {
				if b != byte(rkey) {
					t.Fatalf("read of rkey %d succeeded with byte %#x at %d, want %#x throughout", rkey, b, i, byte(rkey))
				}
			}
		case errors.Is(err, rdma.ErrBadKey):
			badKey++
		default:
			t.Fatalf("read of rkey %d: %v, want success or ErrBadKey", rkey, err)
		}
	}
	close(stop)
	wg.Wait()
	t.Logf("%d reads delivered their region whole, %d lost the race as ErrBadKey", ok, badKey)
}

// TestShmOutstandingBeyondOldArena: registrations no longer share a 64 MiB
// staging arena, so 80 MiB outstanding at once neither stalls nor fails.
func TestShmOutstandingBeyondOldArena(t *testing.T) {
	owner, reader := startShmPair(t)
	const count, size = 80, 1 << 20
	bufs := make([][]byte, count)
	for i := range bufs {
		bufs[i] = make([]byte, size)
		bufs[i][0], bufs[i][size/2], bufs[i][size-1] = byte(i), byte(i+1), byte(i+2)
	}
	dst := make([]byte, size)
	start := time.Now()
	mrs := make([]*rdma.MemoryRegion, count)
	for i, buf := range bufs {
		mrs[i] = owner.tr.RegisterMemory(buf)
	}
	for i, mr := range mrs {
		if err := reader.tr.Read(0, dst, mr.RKey, 0, size); err != nil || !bytes.Equal(dst, bufs[i]) {
			t.Fatalf("read of region %d of %d: err %v, equal %v", i, count, err, bytes.Equal(dst, bufs[i]))
		}
	}
	if took := time.Since(start); took > time.Second {
		t.Errorf("registering and reading %d MiB took %v, want under 1 s", count, took)
	}
	for _, mr := range mrs {
		owner.tr.Deregister(mr)
	}
}

// TestShmAttachRefused: every segment names a pid that no longer exists, so
// every attach probe is refused. Pure shm has no other way to serve a READ
// and fails in New with the typed error; hybrid keeps the rings and sends
// the READ down the TCP RPC.
func TestShmAttachRefused(t *testing.T) {
	dead := netfabric.ReapedPid(t)
	netfabric.AnnounceSegmentPid(t, dead)
	// A directory per rank: in a shared one, each rank starting up would
	// reclaim the other's segment as a dead owner's.
	dirs := []string{t.TempDir(), t.TempDir()}
	ownDir := func(k int, cfg *netfabric.Config) { cfg.ShmDir = dirs[k] }
	defer func() {
		for _, dir := range dirs {
			if left, _ := filepath.Glob(filepath.Join(dir, "*")); len(left) > 0 {
				t.Errorf("segment files left behind: %v", left)
			}
		}
	}()

	// A refused rank takes its segment file with it, so its peer fails
	// either the same way or on the missing file; nobody gets a transport.
	_, errs := startTransports(t, "shm", 2, ownDir)
	typed := 0
	for k, err := range errs {
		var refused *netfabric.DirectReadError
		switch {
		case errors.As(err, &refused):
			typed++
			if refused.Pid != dead || refused.Errno != syscall.ESRCH || refused.PtraceScope == "" {
				t.Fatalf("rank %d: refusal %+v, want pid %d, ESRCH and the ptrace scope", k, refused, dead)
			}
		case !errors.Is(err, fs.ErrNotExist):
			t.Fatalf("rank %d: New over pure shm: %v, want a *DirectReadError", k, err)
		}
	}
	if typed == 0 {
		t.Fatalf("no rank was told why: %v", errs)
	}

	ranks, errs := startTransports(t, "hybrid", 2, ownDir)
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	defer closeConformance(ranks) // before the deferred look at dirs, not after it in Cleanup
	src := crossPattern(0, 1, 256<<10)
	mr := ranks[0].tr.RegisterMemory(src)
	dst := make([]byte, len(src))
	if err := ranks[1].tr.Read(0, dst, mr.RKey, 0, len(dst)); err != nil || !bytes.Equal(dst, src) {
		t.Fatalf("hybrid read with direct reads refused: err %v, equal %v", err, bytes.Equal(dst, src))
	}
	c := &ranks[1].tr.Obs().Counters
	if rpcs, direct := c.Load(obs.CtrNetReadReqs), c.Load(obs.CtrShmReads); rpcs == 0 || direct != 0 {
		t.Fatalf("%d READ RPCs and %d direct reads, want the RPC to have served it alone", rpcs, direct)
	}
	ranks[0].tr.Deregister(mr)
	// The rings still carry the data frames.
	ranks[1].rq.Post(make([]byte, 16), 9)
	if err := ranks[0].tr.Endpoint(1).Send([]byte("ring"), 0, 0); err != nil {
		t.Fatal(err)
	}
	if got := ranks[1].next(t); got.Err != nil || string(got.Data) != "ring" {
		t.Fatalf("frame over the shm ring: %+v", got)
	}
	if got := ranks[0].tr.Obs().Counters.Load(obs.CtrShmTxFrames); got == 0 {
		t.Fatal("the data frame did not take the shm ring")
	}
}

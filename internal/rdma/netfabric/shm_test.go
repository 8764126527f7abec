package netfabric

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
	"unsafe"

	"repro/internal/obs"
	"repro/internal/rdma"
)

// ReapedPid returns the pid of a child process that has exited and been
// waited for: a pid that names nobody (until the kernel's counter wraps).
func ReapedPid(t *testing.T) int {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	if err := cmd.Run(); err != nil {
		t.Fatalf("run a child to reap: %v", err)
	}
	return cmd.Process.Pid
}

// AnnounceSegmentPid is a hook for the black-box tests: until the test
// ends, every segment created here names pid as its owner.
func AnnounceSegmentPid(t *testing.T, pid int) {
	old := segmentPid
	segmentPid = func() int { return pid }
	t.Cleanup(func() { segmentPid = old })
}

// ShmSegmentBytes is what one rank of an n-rank job maps for itself.
func ShmSegmentBytes(n int) int { return shmSegmentSize(n) }

// TestShmReclaimsStaleSegments: creating a segment clears its directory of
// segment files whose owner is dead, and of nothing else.
func TestShmReclaimsStaleSegments(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, words ...uint64) string {
		b := make([]byte, shmHeaderBytes)
		for i, w := range words {
			binary.LittleEndian.PutUint64(b[i*8:], w)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o600); err != nil {
			t.Fatal(err)
		}
		return path
	}
	dead, live := uint64(ReapedPid(t)), uint64(os.Getpid())
	stale := write("repro-shm-r0-stale.seg", shmMagic, shmVersion, 2, shmRingBytes, dead)
	keep := []string{
		write("repro-shm-r1-live.seg", shmMagic, shmVersion, 2, shmRingBytes, live),
		write("repro-shm-r2-half.seg", 0, shmVersion, 2, shmRingBytes, dead),           // no magic yet: still being written
		write("repro-shm-r3-old.seg", shmMagic, shmVersion-1, 2, shmRingBytes, 64<<20), // another build's layout
		write("repro-shm-r4-nopid.seg", shmMagic, shmVersion, 2, shmRingBytes, 0),
		write("unrelated.seg", shmMagic, shmVersion, 2, shmRingBytes, dead),
	}
	if err := os.WriteFile(filepath.Join(dir, "repro-shm-r5-short.seg"), []byte("REPRO"), 0o600); err != nil {
		t.Fatal(err)
	}

	seg, err := createShmSegment(dir, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Errorf("dead owner's segment survived start-up (stat: %v)", err)
	}
	for _, path := range append(keep, seg.path, filepath.Join(dir, "repro-shm-r5-short.seg")) {
		if _, err := os.Stat(path); err != nil {
			t.Errorf("%s was removed: %v", filepath.Base(path), err)
		}
	}
	seg.close()
	if _, err := os.Stat(seg.path); !os.IsNotExist(err) {
		t.Errorf("closing the owner's segment left its file (stat: %v)", err)
	}
}

// TestShmRingResidentWithinWindow: a ring that drains between records
// keeps its resident pages within the rewind window, however much traffic
// has gone through it. 20 000 small frames go through a real segment's
// ring, each read before the next is written — about 1.4 MB, enough to go
// round the 2 MiB ring's first lap most of the way — and mincore must then
// find at most the window's pages resident, plus one for the record that
// crossed its end and one for the control prefix the data shares a page
// with.
func TestShmRingResidentWithinWindow(t *testing.T) {
	seg, err := createShmSegment(t.TempDir(), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.close()
	r, err := seg.ring(1)
	if err != nil {
		t.Fatal(err)
	}
	rec := appendFrame(nil, frData, 1, make([]byte, 64))
	var scratch []byte
	for i := 0; i < 20_000; i++ {
		if !r.tryWrite(rec) {
			t.Fatalf("frame %d: tryWrite failed on a drained ring", i)
		}
		if got, ok, err := r.tryRead(&scratch); !ok || err != nil || !bytes.Equal(got, rec) {
			t.Fatalf("frame %d: tryRead ok=%v err=%v", i, ok, err)
		}
	}
	page := uintptr(os.Getpagesize())
	data := uintptr(unsafe.Pointer(&r.data[0]))
	start, end := data&^(page-1), data+uintptr(len(r.data))
	vec := make([]byte, (end-start+page-1)/page)
	if _, _, errno := syscall.Syscall(syscall.SYS_MINCORE, start, end-start, uintptr(unsafe.Pointer(&vec[0]))); errno != 0 {
		t.Fatalf("mincore: %v", errno)
	}
	resident := 0
	for _, v := range vec {
		resident += int(v & 1)
	}
	t.Logf("%d of %d data pages resident", resident, len(vec))
	if limit := int(r.window()/uint64(page)) + 2; resident > limit {
		t.Errorf("%d of the ring's %d data pages resident after %d bytes of drained traffic, want at most %d",
			resident, len(vec), 20_000*(4+len(rec)), limit)
	}
	if cap(scratch) != len(rec) {
		t.Errorf("scratch is %d bytes, want the one record size it held, %d", cap(scratch), len(rec))
	}
}

// TestShmRefusesOtherVersion: a segment written by a build with another
// ring protocol is refused at attach, never read with this one's.
func TestShmRefusesOtherVersion(t *testing.T) {
	seg, err := createShmSegment(t.TempDir(), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.close()
	binary.LittleEndian.PutUint64(seg.mem[8:], shmVersion-1)
	if peer, err := openShmSegment(seg.path, 2); err == nil {
		peer.close()
		t.Fatal("a version-2 segment was attached")
	} else if !strings.Contains(err.Error(), "header[1]") {
		t.Fatalf("attach of a version-2 segment: %v, want the version named", err)
	}
}

// shmPair builds a 2-rank pure shm job in this process, not yet started:
// a test changes what rank k knows of its peer between attach and Start.
func shmPair(t *testing.T) (trs [2]*transport, cqs [2]*rdma.CQ) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go ServeCoordinator(ln, 2)
	dir := t.TempDir()
	var errs [2]error
	var wg sync.WaitGroup
	for k := range trs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr, err := New(Config{Network: "shm", Rank: k, Ranks: 2, Coord: ln.Addr().String(), ShmDir: dir})
			if err == nil {
				trs[k] = tr.(*transport)
			}
			errs[k] = err
		}()
	}
	wg.Wait()
	for k := range trs {
		if errs[k] != nil {
			t.Fatalf("rank %d: %v", k, errs[k])
		}
		cqs[k] = rdma.NewCQ()
		t.Cleanup(func() { trs[k].Close() })
	}
	return trs, cqs
}

func startPair(t *testing.T, trs [2]*transport, cqs [2]*rdma.CQ) {
	t.Helper()
	for k, tr := range trs {
		if err := tr.Start(rdma.NewBounceQueue(8, 256), cqs[k]); err != nil {
			t.Fatal(err)
		}
	}
}

// parked waits for tr's poller to have parked: from then on it probes.
// The spin phase before it yields the core 512 times, which on a loaded
// machine can take longer than any bound the probe itself must meet.
func parked(t *testing.T, tr *transport) time.Time {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); tr.sink.Counters.Load(obs.CtrShmParks) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the poller never parked")
		}
	}
	return time.Now()
}

// TestShmPeerLostReported: once rank 0's pid names nobody, rank 1's parked
// poller finds its probe word gone and reports exactly one error
// completion, ErrPeerLost with rank 0 in Imm and no buffer, within 100 ms
// of parking. Rank 0, whose peer answers, reports nothing.
func TestShmPeerLostReported(t *testing.T) {
	trs, cqs := shmPair(t)
	trs[1].shm.peers[0].seg.pid = ReapedPid(t)
	startPair(t, trs, cqs)
	since := parked(t, trs[1])
	for cqs[1].Ready() == 0 {
		if time.Since(since) > 100*time.Millisecond {
			t.Fatal("the lost peer was not reported within 100 ms of the poller parking")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(5 * shmProbeEvery)
	if n := cqs[1].Ready(); n != 1 {
		t.Fatalf("%d completions for one lost peer, want 1", n)
	}
	var c [1]rdma.Completion
	cqs[1].WaitBatch(0, c[:])
	if !errors.Is(c[0].Err, rdma.ErrPeerLost) || c[0].Imm != 0 || c[0].Data != nil {
		t.Fatalf("loss completion %+v, want ErrPeerLost, Imm 0 and no buffer", c[0])
	}
	if n := cqs[0].Ready(); n != 0 {
		t.Fatalf("rank 0 reported %d completions with its peer alive", n)
	}
}

// TestShmOrderlyCloseReportsNothing: a peer that closes marks its segment
// first, so the rank it leaves behind keeps probing nothing and reports
// nothing.
func TestShmOrderlyCloseReportsNothing(t *testing.T) {
	trs, cqs := shmPair(t)
	startPair(t, trs, cqs)
	parked(t, trs[1])
	trs[0].Close()
	time.Sleep(10 * shmProbeEvery)
	if n := cqs[1].Ready(); n != 0 {
		var c [1]rdma.Completion
		cqs[1].WaitBatch(0, c[:])
		t.Fatalf("rank 1 reported %d completions (first %+v) after rank 0 closed", n, c[0])
	}
}

package netfabric

import (
	"encoding/binary"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
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

package netfabric

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"unsafe"
)

// shmRing is a single-producer single-consumer byte ring over a shared
// memory region — the per-peer-pair lane of the shm transport. The sender
// process is the producer, the receiving rank's poll goroutine the
// consumer, and the only coordination is a pair of monotone byte cursors:
//
//	head  bytes consumed (written only by the consumer)
//	tail  bytes published (written only by the producer)
//
// Both live on their own cache line at the front of the region so the two
// sides never false-share, and both are accessed with sync/atomic — the
// release store of tail after the record bytes is what makes a record
// visible, and the acquire load on the other side is what makes its bytes
// safe to read, across processes exactly as across goroutines.
//
// Records are [u32 little-endian length][payload]; the payload is one
// encoded netfabric frame (the same codec TCP carries), and the
// fixed-width length prefix keeps parsing trivial under wraparound — both
// the prefix and the payload may wrap the ring edge and are copied in two
// spans when they do.
//
// A ring's pages cost memory once touched, so a producer that finds the
// ring drained with its lap offset past the window (size/32) rewinds: it
// writes ringSkip where the next record would have gone and stages the
// record at the start of the next lap instead, publishing both with one
// tail store. The consumer that reads ringSkip moves head to the lap
// boundary. A ring that drains between records therefore touches the front
// window of its data and little more, whatever its capacity; one that
// stays busy uses it all, wrapping at the edge as before.
type shmRing struct {
	head *atomic.Uint64
	tail *atomic.Uint64
	data []byte
	size uint64
}

const (
	// ringCtrlBytes is the control prefix of a ring region: one cache line
	// each for head and tail.
	ringCtrlBytes = 128
	// ringSkip in a length prefix says "the rest of this lap is empty: the
	// next record starts at the lap boundary". No record is that long.
	ringSkip = 0xFFFFFFFF
	// ringWindowShift sets the rewind window at size/32 (64 KiB of a 2 MiB
	// ring): a drained ring rewinds only once its lap offset is past it.
	// Rewinding at every drained write costs throughput for no memory.
	ringWindowShift = 5
)

// ringAt lays a ring over mem (control prefix + data). mem must be
// 8-byte aligned — mmap regions are page aligned, and a test's heap
// backing must be aligned explicitly.
func ringAt(mem []byte) (*shmRing, error) {
	if len(mem) <= ringCtrlBytes {
		return nil, fmt.Errorf("netfabric: ring region %d bytes, need > %d", len(mem), ringCtrlBytes)
	}
	if uintptr(unsafe.Pointer(&mem[0]))%8 != 0 {
		return nil, fmt.Errorf("netfabric: ring region misaligned")
	}
	r := &shmRing{
		head: (*atomic.Uint64)(unsafe.Pointer(&mem[0])),
		tail: (*atomic.Uint64)(unsafe.Pointer(&mem[64])),
		data: mem[ringCtrlBytes:],
	}
	r.size = uint64(len(r.data))
	return r, nil
}

// fits reports whether a record of n payload bytes can ever be staged —
// i.e. whether it is smaller than the ring itself.
func (r *shmRing) fits(n int) bool { return uint64(4+n) <= r.size }

// window is how far into a lap a drained ring's producer writes before
// it rewinds to the lap boundary.
func (r *shmRing) window() uint64 { return r.size >> ringWindowShift }

// tryWrite stages one record. It returns false when the ring lacks space;
// the producer retries under its spin-then-park policy. Only one producer
// may call tryWrite at a time (the shm endpoint serializes with a mutex).
func (r *shmRing) tryWrite(rec []byte) bool {
	need := uint64(4 + len(rec))
	tail := r.tail.Load()
	head := r.head.Load() // acquire: consumed bytes are reusable
	if r.size-(tail-head) < need {
		return false
	}
	var hdr [4]byte
	// Drained and past the window: rewind, if the marker fits before the
	// edge and the record fits between the boundary and the marker.
	if off := tail % r.size; head == tail && off > r.window() && off+4 <= r.size && need <= off {
		binary.LittleEndian.PutUint32(hdr[:], ringSkip)
		r.copyIn(tail, hdr[:])
		tail += r.size - off
	}
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(rec)))
	r.copyIn(tail, hdr[:])
	r.copyIn(tail+4, rec)
	r.tail.Store(tail + need) // release: publish the record (and a skip before it)
	return true
}

// tryRead copies the next record into *scratch, growing it to the record's
// size when it is smaller, and consumes the record. ok is false when the
// ring is empty. A non-nil error means the ring state is corrupt (a torn
// or oversized record, a skip with no record behind it) — with a
// well-behaved producer this is unreachable, because tail is only advanced
// over whole records.
func (r *shmRing) tryRead(scratch *[]byte) (rec []byte, ok bool, err error) {
	head := r.head.Load()
	tail := r.tail.Load() // acquire: published bytes are readable
	avail := tail - head
	if avail == 0 {
		return nil, false, nil
	}
	if avail < 4 {
		return nil, false, fmt.Errorf("netfabric: shm ring torn record prefix (%d bytes)", avail)
	}
	var hdr [4]byte
	r.copyOut(head, hdr[:])
	n := uint64(binary.LittleEndian.Uint32(hdr[:]))
	if n == ringSkip {
		skip := r.size - head%r.size
		if skip < 4 || avail < skip+4 {
			return nil, false, fmt.Errorf("netfabric: shm ring skip at offset %d with no record behind it", head%r.size)
		}
		head, avail = head+skip, avail-skip
		r.copyOut(head, hdr[:])
		n = uint64(binary.LittleEndian.Uint32(hdr[:]))
	}
	if 4+n > avail {
		return nil, false, fmt.Errorf("netfabric: shm ring record %d bytes, only %d published", n, avail-4)
	}
	if n > uint64(len(*scratch)) {
		*scratch = make([]byte, n)
	}
	rec = (*scratch)[:n]
	r.copyOut(head+4, rec)
	r.head.Store(head + 4 + n) // release: free the space
	return rec, true, nil
}

// copyIn writes p at ring position pos, wrapping at the edge.
func (r *shmRing) copyIn(pos uint64, p []byte) {
	off := pos % r.size
	n := copy(r.data[off:], p)
	if n < len(p) {
		copy(r.data, p[n:])
	}
}

// copyOut reads len(p) bytes from ring position pos, wrapping at the edge.
func (r *shmRing) copyOut(pos uint64, p []byte) {
	off := pos % r.size
	n := copy(p, r.data[off:])
	if n < len(p) {
		copy(p[n:], r.data)
	}
}

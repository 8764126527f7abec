package netfabric

import (
	"bytes"
	"encoding/binary"
	"math/rand/v2"
	"runtime"
	"sync/atomic"
	"testing"
	"unsafe"
)

// newHeapRing builds a ring over process-local memory: the
// uint64 backing guarantees the alignment mmap gives the real transport.
func newHeapRing(capacity int) *shmRing {
	words := make([]uint64, (ringCtrlBytes+capacity+7)/8)
	mem := unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), ringCtrlBytes+capacity)
	r, err := ringAt(mem)
	if err != nil {
		panic(err)
	}
	return r
}

// TestShmRingWraparound drives records across the ring edge single-
// threaded. One record stays in flight, so the producer never finds the
// ring drained and never rewinds: sizes are chosen so both the u32 prefix
// and the payload straddle the edge repeatedly, and every byte must come
// back exact.
func TestShmRingWraparound(t *testing.T) {
	r := newHeapRing(256)
	var scratch []byte
	record := func(i int) []byte {
		rec := make([]byte, int(rand.New(rand.NewPCG(uint64(i), 0)).Uint64()%90)) // 0..89, vs 256 capacity: wraps constantly
		for j := range rec {
			rec[j] = byte(i + j)
		}
		return rec
	}
	var prefixWraps, payloadWraps int
	for i := 0; i < 10_000; i++ {
		rec := record(i)
		tail := r.tail.Load()
		if !r.tryWrite(rec) {
			t.Fatalf("rep %d: tryWrite failed with one record in flight", i)
		}
		if got := r.tail.Load() - tail; got != uint64(4+len(rec)) {
			t.Fatalf("rep %d: tail moved %d bytes for a %d-byte record: rewound a ring that was not drained", i, got, 4+len(rec))
		}
		switch off := tail % r.size; {
		case off+4 > r.size:
			prefixWraps++
		case off+4 < r.size && off+4+uint64(len(rec)) > r.size:
			payloadWraps++
		}
		if i == 0 {
			continue
		}
		got, ok, err := r.tryRead(&scratch)
		if err != nil {
			t.Fatalf("rep %d: tryRead: %v", i, err)
		}
		if !ok {
			t.Fatalf("rep %d: record %d not visible after write", i, i-1)
		}
		if want := record(i - 1); !bytes.Equal(got, want) {
			t.Fatalf("rep %d: payload mismatch (%d bytes, want %d)", i, len(got), len(want))
		}
	}
	if prefixWraps == 0 || payloadWraps == 0 {
		t.Fatalf("%d prefixes and %d payloads straddled the edge, want both", prefixWraps, payloadWraps)
	}
	if cap(scratch) > 89 {
		t.Errorf("scratch grew to %d bytes, want the largest record, at most 89", cap(scratch))
	}
}

// TestShmRingTornFrameProperty is the concurrent torn-frame property
// test: a producer streams frame-encoded records of pseudorandom sizes
// while a consumer drains them. Run under -race (the CI race matrix
// includes this package) it checks the release/acquire protocol on
// head/tail; functionally it checks that no record is ever torn — every
// decoded frame must be byte-identical to what was staged, in order,
// across thousands of laps of a deliberately tiny ring. The consumer reads
// only once the ring is half full, so records wrap the edge, and every
// 50th record the producer first waits for the ring to drain, so the ring
// also rewinds; both must have happened.
func TestShmRingTornFrameProperty(t *testing.T) {
	const (
		ringBytes = 4096
		records   = 20_000
		maxPay    = 700
	)
	r := newHeapRing(ringBytes)

	makePayload := func(i int) []byte {
		rng := rand.NewPCG(uint64(i), 0).Uint64()
		p := make([]byte, int(rng%maxPay))
		for j := range p {
			p[j] = byte(rng>>8) + byte(i*31+j)
		}
		return p
	}

	var waiting, finished atomic.Bool // the producer waits for a drain; it has staged everything
	done := make(chan error, 1)
	go func() {
		var scratch []byte
		for i := 0; i < records; i++ {
			var rec []byte
			for {
				if r.tail.Load()-r.head.Load() < ringBytes/2 && !waiting.Load() && !finished.Load() {
					runtime.Gosched() // let the producer fill the ring
					continue
				}
				var ok bool
				var err error
				rec, ok, err = r.tryRead(&scratch)
				if err != nil {
					done <- err
					return
				}
				if ok {
					break
				}
				runtime.Gosched() // single-core CI: let the producer run
			}
			f, rest, err := decodeFrame(rec)
			if err != nil {
				done <- err
				return
			}
			if len(rest) != 0 {
				t.Errorf("record %d: %d trailing bytes after frame", i, len(rest))
			}
			if f.kind != frData || f.src != i%7 {
				t.Errorf("record %d: decoded kind=%d src=%d, want kind=%d src=%d",
					i, f.kind, f.src, frData, i%7)
			}
			if want := makePayload(i); !bytes.Equal(f.payload, want) {
				t.Errorf("record %d: torn payload (%d bytes, want %d)", i, len(f.payload), len(want))
			}
		}
		done <- nil
	}()

	var rewinds, wraps int
	for i := 0; i < records; i++ {
		rec := appendFrame(nil, frData, i%7, makePayload(i))
		if i%50 == 0 {
			waiting.Store(true)
			for r.head.Load() != r.tail.Load() {
				runtime.Gosched()
			}
			waiting.Store(false)
		}
		tail := r.tail.Load()
		for !r.tryWrite(rec) {
			runtime.Gosched() // ring full: let the consumer drain
		}
		switch need, off := uint64(4+len(rec)), tail%r.size; {
		case r.tail.Load()-tail > need:
			rewinds++
		case off+need > r.size:
			wraps++
		}
	}
	finished.Store(true)
	if err := <-done; err != nil {
		t.Fatalf("consumer: %v", err)
	}
	if rewinds == 0 || wraps == 0 {
		t.Fatalf("%d rewinds and %d wraps over %d records, want both", rewinds, wraps, records)
	}
	t.Logf("%d rewinds, %d wraps", rewinds, wraps)
}

// TestShmRingSkipWithoutRecord: a skip marker must have a record behind it
// at the lap boundary, published by the same tail store; one with nothing
// behind it is a torn ring, reported and not consumed.
func TestShmRingSkipWithoutRecord(t *testing.T) {
	r := newHeapRing(256)
	const at = 200
	r.head.Store(at)
	binary.LittleEndian.PutUint32(r.data[at:], ringSkip)
	var scratch []byte
	for _, tail := range []uint64{at + 4, 256, 256 + 3} {
		r.tail.Store(tail)
		if _, ok, err := r.tryRead(&scratch); err == nil || ok {
			t.Fatalf("tail %d: skip at %d with no record behind it read as ok=%v err=%v, want a torn-ring error", tail, at, ok, err)
		}
		if r.head.Load() != at {
			t.Fatalf("tail %d: head moved to %d on a torn ring", tail, r.head.Load())
		}
	}
	// With the record behind it, the skip is taken.
	binary.LittleEndian.PutUint32(r.data[0:], 2)
	copy(r.data[4:], "ok")
	r.tail.Store(256 + 6)
	if got, ok, err := r.tryRead(&scratch); err != nil || !ok || string(got) != "ok" || r.head.Load() != 256+6 {
		t.Fatalf("skip then record: %q ok=%v err=%v head=%d", got, ok, err, r.head.Load())
	}
}

// TestShmRingFits pins the capacity rule: a record needs its payload
// plus the 4-byte prefix, and something larger than the ring can never
// be staged.
func TestShmRingFits(t *testing.T) {
	r := newHeapRing(128)
	if !r.fits(124) {
		t.Fatal("124-byte record should fit a 128-byte ring")
	}
	if r.fits(125) {
		t.Fatal("125-byte record cannot fit a 128-byte ring (4-byte prefix)")
	}
	if r.tryWrite(make([]byte, 125)) {
		t.Fatal("tryWrite accepted an oversized record")
	}
	// Exactly full is fine.
	if !r.tryWrite(make([]byte, 124)) {
		t.Fatal("tryWrite rejected an exactly-full record")
	}
	if r.tryWrite([]byte{1}) {
		t.Fatal("tryWrite accepted a record into a full ring")
	}
}

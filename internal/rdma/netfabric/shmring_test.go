package netfabric

import (
	"bytes"
	"math/rand/v2"
	"runtime"
	"testing"
)

// TestShmRingWraparound drives records across the ring edge single-
// threaded: sizes are chosen so both the u32 prefix and the payload
// straddle the wrap repeatedly, and every byte must come back exact.
func TestShmRingWraparound(t *testing.T) {
	r := newHeapRing(256)
	scratch := make([]byte, 256)
	rng := rand.NewPCG(1, 0)
	for i := 0; i < 10_000; i++ {
		size := int(rng.Uint64() % 90) // 0..89, vs 256 capacity: wraps constantly
		rec := make([]byte, size)
		for j := range rec {
			rec[j] = byte(i + j)
		}
		if !r.tryWrite(rec) {
			t.Fatalf("rep %d: tryWrite failed on an empty ring", i)
		}
		got, ok, err := r.tryRead(scratch)
		if err != nil {
			t.Fatalf("rep %d: tryRead: %v", i, err)
		}
		if !ok {
			t.Fatalf("rep %d: record not visible after write", i)
		}
		if !bytes.Equal(got, rec) {
			t.Fatalf("rep %d: payload mismatch (%d bytes)", i, size)
		}
	}
}

// TestShmRingTornFrameProperty is the concurrent torn-frame property
// test: a producer streams frame-encoded records of pseudorandom sizes
// while a consumer drains them. Run under -race (the CI race matrix
// includes this package) it checks the release/acquire protocol on
// head/tail; functionally it checks that no record is ever torn — every
// decoded frame must be byte-identical to what was staged, in order,
// across thousands of wraparounds of a deliberately tiny ring.
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

	done := make(chan error, 1)
	go func() {
		scratch := make([]byte, ringBytes)
		for i := 0; i < records; i++ {
			var rec []byte
			for {
				var ok bool
				var err error
				rec, ok, err = r.tryRead(scratch)
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

	for i := 0; i < records; i++ {
		rec := appendFrame(nil, frData, i%7, makePayload(i))
		for !r.tryWrite(rec) {
			runtime.Gosched() // ring full: let the consumer drain
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("consumer: %v", err)
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

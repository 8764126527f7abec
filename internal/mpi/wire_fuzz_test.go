package mpi

import (
	"bytes"
	"testing"

	"repro/internal/match"
)

// FuzzDecodeHeader hardens the wire parser: arbitrary bytes must never
// panic, every header that decodes must re-encode to the same bytes in the
// fields the engine consumes, and whatever peekHeader claims decodes to the
// kind and communicator the peek read.
func FuzzDecodeHeader(f *testing.F) {
	var seed [headerSize]byte
	h := header{kind: kindEager, src: 3, tag: 9, comm: 1, size: 16}
	h.encode(seed[:])
	f.Add(seed[:])
	f.Add([]byte{})
	f.Add([]byte{kindAck})
	f.Add(bytes.Repeat([]byte{0xFF}, headerSize))
	f.Add(bytes.Repeat([]byte{0x00}, headerSize+32))
	rts := header{kind: kindRTS, src: 1, tag: -4, comm: -7, size: 1 << 20, rkey: 99}
	rts.encode(seed[:])
	f.Add(seed[:])

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := decodeHeader(data)
		if peek, ok := peekHeader(data); ok && (err != nil || peek.kind != got.kind || peek.comm != got.comm) {
			t.Fatalf("peek claimed kind %d comm %d; decode: kind %d comm %d, err %v",
				peek.kind, peek.comm, got.kind, got.comm, err)
		}
		if err != nil {
			return
		}
		if got.kind < kindEager || got.kind > kindEagerBatch {
			t.Fatalf("decode accepted kind %d", got.kind)
		}
		var buf [headerSize]byte
		got.encode(buf[:])
		round, err := decodeHeader(buf[:])
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if round != got {
			t.Fatalf("round trip: %+v != %+v", round, got)
		}
	})
}

// TestPeekHeaderAgreesWithDecode: the offload engine's take path claims a
// lone eager or RTS message from its kind byte and communicator word alone.
// For every kind, known or not, at every length around the header, the peek
// must claim exactly the eager and RTS messages decodeHeader accepts, and
// read the same kind and communicator.
func TestPeekHeaderAgreesWithDecode(t *testing.T) {
	for kind := 0; kind < 256; kind++ {
		for _, comm := range []int32{0, 7, -1, 1 << 30} {
			h := header{kind: uint8(kind), src: 2, tag: 11, comm: comm, size: 3, seq: 5, rkey: 8}
			wire := make([]byte, headerSize+3)
			h.encode(wire)
			for _, n := range []int{0, 1, 12, 16, headerSize - 1, headerSize, headerSize + 3} {
				peek, claimed := peekHeader(wire[:n])
				full, err := decodeHeader(wire[:n])
				want := err == nil && (full.kind == kindEager || full.kind == kindRTS)
				if claimed != want {
					t.Fatalf("kind %d, %d bytes: peek claims %v, decode err %v", kind, n, claimed, err)
				}
				if claimed && (peek.kind != full.kind || peek.comm != full.comm) {
					t.Fatalf("kind %d, %d bytes: peek read (%d, %d), decode (%d, %d)",
						kind, n, peek.kind, peek.comm, full.kind, full.comm)
				}
			}
		}
	}
}

// FuzzPayloadOf ensures payload slicing never exceeds the wire buffer.
func FuzzPayloadOf(f *testing.F) {
	var seed [headerSize + 8]byte
	h := header{kind: kindEager, size: 8}
	h.encode(seed[:])
	f.Add(seed[:], uint32(8))

	f.Fuzz(func(t *testing.T, data []byte, size uint32) {
		h, err := decodeHeader(data)
		if err != nil {
			return
		}
		// Simulate a hostile size field.
		h.size = size
		defer func() {
			if r := recover(); r != nil {
				// Out-of-range sizes may panic on slicing in payloadOf; the
				// engine only calls it on self-generated traffic, but
				// document the boundary here: sizes within the buffer never
				// panic.
				if int(h.size) <= len(data)-headerSize {
					t.Fatalf("in-range payload panicked: %v", r)
				}
			}
		}()
		p := payloadOf(h, data)
		if h.kind == kindEager && len(p) != int(h.size) {
			t.Fatalf("payload length %d, want %d", len(p), h.size)
		}
		if h.kind != kindEager && p != nil {
			t.Fatal("non-eager payload not nil")
		}
	})
}

// batchFrame assembles a valid kindEagerBatch wire message from payloads,
// mirroring what coalescer.flushLocked produces.
func batchFrame(payloads ...[]byte) []byte {
	body := make([]byte, headerSize)
	for i, p := range payloads {
		body = appendSubRecord(body, int32(i-1), match.InlineHashes{
			SrcTag: uint64(i), Tag: uint64(2 * i), Src: uint64(3 * i),
		}, p)
	}
	h := header{
		kind: kindEagerBatch, src: 1, comm: 0,
		size: uint32(len(body) - headerSize),
		rkey: uint64(len(payloads)),
	}
	h.encode(body[:headerSize])
	return body
}

// FuzzBatchFrame hardens the multi-message frame parser: arbitrary bodies,
// counts, and size fields must never panic or slice outside the wire
// buffer, and every frame the coalescer can legally emit must decode back
// to its inputs exactly.
func FuzzBatchFrame(f *testing.F) {
	// Well-formed frames: single message, zero-length payloads, mixed
	// sizes, and a max-count frame of empty payloads.
	f.Add(batchFrame([]byte("hello")))
	f.Add(batchFrame([]byte{}, []byte{}, []byte{}))
	f.Add(batchFrame([]byte{1}, bytes.Repeat([]byte{2}, 64), []byte{}))
	many := make([][]byte, maxBatchMsgs)
	for i := range many {
		many[i] = []byte{}
	}
	f.Add(batchFrame(many...))
	// Malformed: truncated sub-headers, hostile counts, trailing bytes.
	trunc := batchFrame([]byte("abcdefgh"))
	f.Add(trunc[:len(trunc)-9]) // cut into the payload
	f.Add(trunc[:headerSize+1]) // cut into the first sub-header
	hostile := batchFrame([]byte("x"))
	var hh header
	hh, _ = decodeHeader(hostile)
	hh.rkey = 1 << 40 // count far beyond maxBatchMsgs
	hh.encode(hostile[:headerSize])
	f.Add(hostile)
	f.Add(append(batchFrame([]byte("y")), 0xEE)) // trailing garbage

	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := decodeHeader(data)
		if err != nil || h.kind != kindEagerBatch {
			return
		}
		it, err := newBatchIter(h, data)
		if err != nil {
			return
		}
		seen := 0
		body := data[headerSize:]
		for {
			m, ok := it.next()
			if !ok {
				break
			}
			seen++
			if len(m.payload) > 0 {
				// The payload must alias the frame body, never beyond it.
				start := len(body) - len(it.body) - len(m.payload)
				if start < 0 || !bytes.Equal(m.payload, body[start:start+len(m.payload)]) {
					t.Fatalf("payload does not alias frame body")
				}
			}
			if seen > maxBatchMsgs {
				t.Fatalf("iterator yielded %d sub-messages, cap is %d", seen, maxBatchMsgs)
			}
		}
		if it.err == nil && seen != int(h.rkey) {
			t.Fatalf("clean iteration yielded %d sub-messages, header says %d", seen, h.rkey)
		}
	})
}

// FuzzBatchRoundTrip checks encode/decode symmetry: sub-records appended
// with arbitrary tags, hashes, and payload splits decode back identically.
func FuzzBatchRoundTrip(f *testing.F) {
	f.Add(int32(0), uint64(1), []byte("payload"), []byte{})
	f.Add(int32(-3), uint64(0xDEADBEEF), []byte{}, []byte("second"))
	f.Add(int32(1<<30), uint64(1)<<63, bytes.Repeat([]byte{7}, 200), []byte{8})

	f.Fuzz(func(t *testing.T, tag int32, hash uint64, p1, p2 []byte) {
		hashes := match.InlineHashes{SrcTag: hash, Tag: hash ^ 1, Src: ^hash}
		body := make([]byte, headerSize)
		body = appendSubRecord(body, tag, hashes, p1)
		body = appendSubRecord(body, -tag, hashes, p2)
		h := header{kind: kindEagerBatch, size: uint32(len(body) - headerSize), rkey: 2}
		h.encode(body[:headerSize])

		it, err := newBatchIter(h, body)
		if err != nil {
			t.Fatalf("valid frame rejected: %v", err)
		}
		for i, want := range []struct {
			tag     int32
			payload []byte
		}{{tag, p1}, {-tag, p2}} {
			m, ok := it.next()
			if !ok {
				t.Fatalf("sub-message %d missing: %v", i, it.err)
			}
			if m.tag != want.tag || !bytes.Equal(m.payload, want.payload) || m.hashes != hashes {
				t.Fatalf("sub-message %d: got tag=%d len=%d, want tag=%d len=%d",
					i, m.tag, len(m.payload), want.tag, len(want.payload))
			}
		}
		if _, ok := it.next(); ok || it.err != nil {
			t.Fatalf("frame did not end cleanly: %v", it.err)
		}
	})
}

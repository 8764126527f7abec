package netfabric

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// frame is one decoded frame; payload aliases the input.
type frame struct {
	kind    byte
	src     int
	payload []byte
}

// decodeFrame parses one frame from the front of b with the package's one
// parser — a memory-backed frameReader, exactly as the UDP and shm wires
// feed the pump — and returns the rest of the buffer.
func decodeFrame(b []byte) (frame, []byte, error) {
	var fr frameReader
	fr.load(b)
	h, err := fr.readFrameHeader()
	if err != nil {
		return frame{}, nil, err
	}
	end := fr.pos + h.payloadLen
	return frame{kind: h.kind, src: h.src, payload: b[fr.pos:end:end]}, b[end:], nil
}

// FuzzDecodeFrame hammers the frame decoder with arbitrary bytes:
// whatever arrives, it must never panic, never over-read, and on success
// return a payload that round-trips through appendFrame. Seeds cover the
// interesting malformations: truncated length prefix, oversized frame,
// garbage after a valid frame, and a zero-length payload.
func FuzzDecodeFrame(f *testing.F) {
	// A valid single frame with payload.
	f.Add(appendFrame(nil, frData, 3, []byte("hello world")))
	// Zero-length payload (smallest legal frame).
	f.Add(appendFrame(nil, frHello, 0, nil))
	// A valid frame followed by garbage.
	f.Add(append(appendFrame(nil, frData, 1, []byte{1, 2, 3}), 0xFF, 0x00, 0x13, 0x37))
	// Truncated length prefix: a lone continuation byte.
	f.Add([]byte{0x80})
	// Length prefix alone, body missing entirely.
	f.Add([]byte{0x0A})
	// Oversized frame: length prefix far beyond maxFramePayload.
	f.Add(binary.AppendUvarint(nil, maxFramePayload+100))
	// Body claims more than the buffer holds.
	f.Add(append(binary.AppendUvarint(nil, 64), frData, 0x01))
	// Unknown kind.
	f.Add([]byte{0x02, 0x7F, 0x00})
	// Read request / response payloads embedded in frames.
	f.Add(appendFrame(nil, frReadReq, 2, appendReadReq(nil, 7, 9, 0, 128)))
	f.Add(appendFrame(nil, frReadResp, 2, []byte{0x07, readOK, 0xAA}))

	f.Fuzz(func(t *testing.T, b []byte) {
		fr, rest, err := decodeFrame(b)
		if err != nil {
			return
		}
		if fr.kind < frData || fr.kind > frReadResp {
			t.Fatalf("decoded invalid kind %d", fr.kind)
		}
		if fr.src < 0 || fr.src > 1<<20 {
			t.Fatalf("decoded out-of-range src %d", fr.src)
		}
		if len(fr.payload) > maxFramePayload {
			t.Fatalf("decoded payload of %d bytes exceeds cap", len(fr.payload))
		}
		// The frame plus the remainder must account for a prefix of b.
		consumed := len(b) - len(rest)
		if consumed <= 0 || consumed > len(b) {
			t.Fatalf("decoder consumed %d of %d bytes", consumed, len(b))
		}
		// Round-trip stability: re-encoding the decoded frame (minimal
		// varints, where the input may have used padded ones) and decoding
		// again must reproduce the same frame exactly.
		re := appendFrame(nil, fr.kind, fr.src, fr.payload)
		if len(re) > consumed {
			t.Fatalf("minimal re-encode is %d bytes, input frame only %d", len(re), consumed)
		}
		fr2, rest2, err := decodeFrame(re)
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if len(rest2) != 0 || fr2.kind != fr.kind || fr2.src != fr.src || !bytes.Equal(fr2.payload, fr.payload) {
			t.Fatalf("round-trip mismatch: %+v vs %+v", fr, fr2)
		}
		// Parsers over the payload must be panic-free too.
		switch fr.kind {
		case frReadReq:
			_, _, _, _, _ = parseReadReq(fr.payload)
		case frReadResp:
			_, _, _, _ = parseReadResp(fr.payload)
		}
	})
}

// TestFrameSizeMatchesAppend pins frameSize to appendFrame's actual output
// across the size-class boundaries pooled buffers care about.
func TestFrameSizeMatchesAppend(t *testing.T) {
	for _, src := range []int{0, 1, 127, 128, 16383, 16384, 1 << 20} {
		for _, n := range []int{0, 1, 63, 64, 127, 128, 1 << 10, maxFramePayload} {
			got := len(appendFrame(nil, frData, src, make([]byte, n)))
			if want := frameSize(src, n); got != want {
				t.Fatalf("frameSize(%d, %d) = %d, appendFrame produced %d", src, n, want, got)
			}
		}
	}
}

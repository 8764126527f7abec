package netfabric

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
)

// Frame kinds. One codec covers every wire: on TCP a frame is one unit of
// the byte stream, on shm one ring record.
const (
	// frData carries one MPI wire message (64-byte header + body) —
	// eager, coalesced kindEagerBatch, RTS, ACK, or sack — unchanged.
	frData byte = iota + 1
	// frHello opens a TCP link: the dialer identifies its rank (empty
	// payload; the src field carries the rank).
	frHello
	// frReadReq asks the owner of a registered region for its bytes —
	// the request half of the rendezvous one-sided READ.
	// Payload: reqID uvarint, rkey uvarint, offset uvarint, length uvarint.
	frReadReq
	// frReadResp answers a read request.
	// Payload: reqID uvarint, status byte, data.
	frReadResp
)

// Read-response status codes.
const (
	readOK byte = iota
	readBadKey
	readBadBounds
	readTooLarge // region slice exceeds the transport's frame budget
)

// maxFramePayload bounds one frame's payload: the slab's largest size
// class. The decoder rejects anything bigger before allocating or reading,
// so a hostile or corrupt length prefix cannot drive memory use.
const maxFramePayload = 1 << 20

// Encoded frame layout, after the varint discipline of
// internal/trace/codec.go (uvarint for the almost-always-small integers):
//
//	length  uvarint  // bytes that follow this field (kind + src + payload)
//	kind    byte
//	src     uvarint  // sending rank
//	payload (length - 1 - len(src varint)) bytes

// uvarintLen is the encoded size of v as a uvarint.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// appendFrame appends one encoded frame to dst.
func appendFrame(dst []byte, kind byte, src int, payload []byte) []byte {
	body := 1 + uvarintLen(uint64(src)) + len(payload)
	dst = binary.AppendUvarint(dst, uint64(body))
	dst = append(dst, kind)
	dst = binary.AppendUvarint(dst, uint64(src))
	return append(dst, payload...)
}

// frameSize is the exact encoded size appendFrame will produce, so pooled
// frame buffers can be sized without a second pass.
func frameSize(src int, payload int) int {
	body := 1 + uvarintLen(uint64(src)) + payload
	return uvarintLen(uint64(body)) + body
}

// frameReader is the one frame parser. Over a connection (r set) it is a
// minimal buffered reader exposing exactly what the pump needs — ReadByte
// for uvarints, ReadFull into bounce buffers, Discard for oversize
// payloads — so the hot path stays inlineable and a payload goes from the
// connection's buffer straight into its destination. With r nil it walks
// the bytes already in buf[pos:end]: one shm ring record or one loopback
// payload. readFrameHeader then vouches that the payload is all there, so
// ReadFull and Discard never reach for r.
type frameReader struct {
	r   io.Reader
	buf []byte
	pos int
	end int
}

func newFrameReader(r io.Reader) *frameReader { return &frameReader{r: r, buf: make([]byte, 64<<10)} }

// load points a memory-backed reader at one received record.
func (b *frameReader) load(rec []byte) { b.buf, b.pos, b.end = rec, 0, len(rec) }

func (b *frameReader) fill() error {
	if b.pos < b.end {
		return nil
	}
	if b.r == nil {
		return io.ErrUnexpectedEOF
	}
	n, err := b.r.Read(b.buf)
	if n > 0 {
		b.pos, b.end = 0, n
		return nil
	}
	if err == nil {
		err = io.ErrNoProgress
	}
	return err
}

func (b *frameReader) ReadByte() (byte, error) {
	if err := b.fill(); err != nil {
		return 0, err
	}
	c := b.buf[b.pos]
	b.pos++
	return c, nil
}

// ReadFull fills p from the buffered bytes first, then the connection.
func (b *frameReader) ReadFull(p []byte) error {
	n := copy(p, b.buf[b.pos:b.end])
	b.pos += n
	if n == len(p) {
		return nil
	}
	_, err := io.ReadFull(b.r, p[n:])
	return err
}

// Discard skips n bytes.
func (b *frameReader) Discard(n int) error {
	buffered := b.end - b.pos
	if n <= buffered {
		b.pos += n
		return nil
	}
	b.pos = b.end
	_, err := io.CopyN(io.Discard, b.r, int64(n-buffered))
	return err
}

// frameHeader is a frame's prefix as parsed: the payload stays unread so
// frData bytes can land directly in a bounce buffer.
type frameHeader struct {
	kind       byte
	src        int
	payloadLen int
}

// readFrameHeader parses the next frame's length, kind, and src, leaving
// payloadLen bytes unread. Every field is validated before use, so
// arbitrary bytes can never panic, over-read, or drive a huge allocation;
// a memory-backed reader additionally rejects a frame that claims more
// payload than its record holds, so the caller may commit a posted buffer
// to the frame before reading the payload.
func (b *frameReader) readFrameHeader() (frameHeader, error) {
	body, err := binary.ReadUvarint(b)
	if err != nil {
		return frameHeader{}, err
	}
	if body < 2 || body > maxFramePayload+16 {
		return frameHeader{}, fmt.Errorf("netfabric: frame body %d out of range", body)
	}
	kind, err := b.ReadByte()
	if err != nil {
		return frameHeader{}, err
	}
	if kind < frData || kind > frReadResp {
		return frameHeader{}, fmt.Errorf("netfabric: unknown frame kind %d", kind)
	}
	src, err := binary.ReadUvarint(b)
	if err != nil {
		return frameHeader{}, err
	}
	if src > 1<<20 {
		return frameHeader{}, fmt.Errorf("netfabric: frame src %d out of range", src)
	}
	payload := int(body) - 1 - uvarintLen(src)
	if payload < 0 || payload > maxFramePayload {
		return frameHeader{}, fmt.Errorf("netfabric: frame payload %d out of range", payload)
	}
	if b.r == nil && payload > b.end-b.pos {
		return frameHeader{}, fmt.Errorf("netfabric: frame needs %d payload bytes, record has %d", payload, b.end-b.pos)
	}
	return frameHeader{kind: kind, src: int(src), payloadLen: payload}, nil
}

// appendReadReq encodes a frReadReq payload.
func appendReadReq(dst []byte, reqID, rkey uint64, offset, length int) []byte {
	dst = binary.AppendUvarint(dst, reqID)
	dst = binary.AppendUvarint(dst, rkey)
	dst = binary.AppendUvarint(dst, uint64(offset))
	return binary.AppendUvarint(dst, uint64(length))
}

// parseReadReq decodes a frReadReq payload.
func parseReadReq(p []byte) (reqID, rkey uint64, offset, length int, err error) {
	var vals [4]uint64
	for i := range vals {
		v, n := binary.Uvarint(p)
		if n <= 0 {
			return 0, 0, 0, 0, fmt.Errorf("netfabric: truncated read request (field %d)", i)
		}
		vals[i] = v
		p = p[n:]
	}
	// Chunked reads carry offsets well past the frame cap; only the
	// per-request length must fit in one response frame. The offset bound
	// is a plain sanity cap against corrupt varints.
	if vals[2] > 1<<40 || vals[3] > maxFramePayload {
		return 0, 0, 0, 0, fmt.Errorf("netfabric: read request range out of bounds")
	}
	return vals[0], vals[1], int(vals[2]), int(vals[3]), nil
}

// parseReadResp decodes a frReadResp payload; data aliases p.
func parseReadResp(p []byte) (reqID uint64, status byte, data []byte, err error) {
	id, n := binary.Uvarint(p)
	if n <= 0 || len(p) < n+1 {
		return 0, 0, nil, fmt.Errorf("netfabric: truncated read response")
	}
	return id, p[n], p[n+1:], nil
}

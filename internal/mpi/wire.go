package mpi

import (
	"encoding/binary"
	"fmt"

	"repro/internal/match"
)

// Message kinds on the wire.
const (
	kindEager      uint8 = iota + 1 // header + full payload (§IV-B eager)
	kindRTS                         // rendezvous ready-to-send: header + rkey
	kindAck                         // rendezvous completion acknowledgement
	kindSack                        // reliability cumulative sequence ack (reliable.go)
	kindEagerBatch                  // coalesced multi-message eager frame (coalesce.go)
)

// headerSize is the fixed wire header length. The layout mirrors what the
// paper's prototype carries: the matching triple, the payload size, the
// per-peer reliability sequence number, the rendezvous memory key, and the
// three sender-computed hash values of the §IV-D "inline hash values"
// optimization.
const headerSize = 64

// header is the decoded wire header.
type header struct {
	kind uint8
	src  int32
	tag  int32
	comm int32
	size uint32
	seq  uint32 // reliability sequence number; for kindSack, the
	// cumulative ack (all sequences below it were delivered)
	rkey   uint64
	hashes match.InlineHashes
}

// encode writes the header into dst[:headerSize].
func (h *header) encode(dst []byte) {
	_ = dst[headerSize-1]
	dst[0] = h.kind
	dst[1], dst[2], dst[3] = 0, 0, 0
	le := binary.LittleEndian
	le.PutUint32(dst[4:], uint32(h.src))
	le.PutUint32(dst[8:], uint32(h.tag))
	le.PutUint32(dst[12:], uint32(h.comm))
	le.PutUint32(dst[16:], h.size)
	le.PutUint32(dst[20:], h.seq)
	le.PutUint64(dst[24:], h.rkey)
	le.PutUint64(dst[32:], h.hashes.SrcTag)
	le.PutUint64(dst[40:], h.hashes.Tag)
	le.PutUint64(dst[48:], h.hashes.Src)
}

// seqOffset locates the sequence-number field so the reliability layer can
// patch an already-encoded header without re-encoding it.
const seqOffset = 20

// decodeHeader parses a wire header.
func decodeHeader(b []byte) (header, error) {
	if len(b) < headerSize {
		return header{}, fmt.Errorf("mpi: short header: %d bytes", len(b))
	}
	le := binary.LittleEndian
	h := header{
		kind: b[0],
		src:  int32(le.Uint32(b[4:])),
		tag:  int32(le.Uint32(b[8:])),
		comm: int32(le.Uint32(b[12:])),
		size: le.Uint32(b[16:]),
		seq:  le.Uint32(b[20:]),
		rkey: le.Uint64(b[24:]),
		hashes: match.InlineHashes{
			SrcTag: le.Uint64(b[32:]),
			Tag:    le.Uint64(b[40:]),
			Src:    le.Uint64(b[48:]),
		},
	}
	if h.kind < kindEager || h.kind > kindEagerBatch {
		return header{}, fmt.Errorf("mpi: unknown message kind %d", h.kind)
	}
	return h, nil
}

// payloadOf returns the eager payload slice of a wire buffer, or nil for
// header-only messages (RTS, ACK).
func payloadOf(h header, wire []byte) []byte {
	if h.kind != kindEager {
		return nil
	}
	return wire[headerSize : headerSize+int(h.size)]
}

// ---------------------------------------------------------------------------
// Coalesced eager frames (kindEagerBatch).
//
// A frame aggregates consecutive eager sends toward one destination on one
// communicator into a single wire message, so the fabric, the completion
// queue, and the reliability sublayer all see one unit where they used to
// see N. The frame reuses the fixed 64-byte header — src and comm are
// shared by every sub-message, size is the body length, seq is the frame's
// single reliability sequence number, and rkey carries the sub-message
// count — followed by one variable-length sub-record per message:
//
//	tag     varint (zigzag; collective tags are negative)
//	size    uvarint payload bytes
//	hashes  3 × 8 bytes LE (the §IV-D sender-computed inline hash values)
//	payload size bytes
//
// The varint discipline mirrors internal/trace/codec.go: integers that are
// almost always small pay one byte, and the fixed-width hash words keep
// decoding branch-free. A typical 8-byte payload costs ~34 wire bytes in a
// frame versus 72 as a standalone eager message — but the real saving is
// the per-message doorbell, CQE, and sequencing overhead, which the frame
// pays once.

// subHdrMax bounds one sub-record's header: two max-length varints (10
// bytes each, though tags and sizes in practice fit in 1-2) plus the three
// 8-byte hash words.
const subHdrMax = 10 + 10 + 24

// maxBatchMsgs bounds the per-frame sub-message count: a hard cap that
// keeps hostile count fields from driving huge allocations during decode.
const maxBatchMsgs = 1 << 12

// zigzag maps signed to unsigned so small negative tags stay short.
func zigzag(v int32) uint64 { return uint64(uint32(v)<<1) ^ uint64(uint32(v>>31)) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int32 { return int32(uint32(u)>>1) ^ -int32(uint32(u)&1) }

// appendSubRecord appends one sub-message record to a frame body.
func appendSubRecord(body []byte, tag int32, hashes match.InlineHashes, payload []byte) []byte {
	body = binary.AppendUvarint(body, zigzag(tag))
	body = binary.AppendUvarint(body, uint64(len(payload)))
	var h [24]byte
	le := binary.LittleEndian
	le.PutUint64(h[0:], hashes.SrcTag)
	le.PutUint64(h[8:], hashes.Tag)
	le.PutUint64(h[16:], hashes.Src)
	body = append(body, h[:]...)
	return append(body, payload...)
}

// subRecordSize is the encoded size of one sub-message record, used by the
// coalescer's size-threshold policy. It charges the worst-case varint
// widths so the policy check never under-reserves.
func subRecordSize(payload int) int { return subHdrMax + payload }

// subMsg is one decoded sub-message of a batch frame.
type subMsg struct {
	tag     int32
	hashes  match.InlineHashes
	payload []byte
}

// batchIter walks the sub-records of a batch frame body. Every length is
// validated against the remaining body, so arbitrary bytes can never panic
// or slice out of range.
type batchIter struct {
	body []byte
	left int // sub-messages remaining per the frame header
	err  error
}

// newBatchIter validates the frame-level invariants of a decoded batch
// header and returns an iterator over wire (the full header+body buffer).
func newBatchIter(h header, wire []byte) (batchIter, error) {
	if h.kind != kindEagerBatch {
		return batchIter{}, fmt.Errorf("mpi: not a batch frame (kind %d)", h.kind)
	}
	n := int(h.rkey)
	if n < 1 || n > maxBatchMsgs {
		return batchIter{}, fmt.Errorf("mpi: batch count %d outside [1,%d]", n, maxBatchMsgs)
	}
	if int(h.size) != len(wire)-headerSize {
		return batchIter{}, fmt.Errorf("mpi: batch body %d bytes, header says %d",
			len(wire)-headerSize, h.size)
	}
	return batchIter{body: wire[headerSize:], left: n}, nil
}

// next decodes the next sub-message. It returns false at the end of the
// frame or on a malformed record; check err afterwards.
func (it *batchIter) next() (subMsg, bool) {
	if it.err != nil || it.left == 0 {
		if it.left == 0 && len(it.body) != 0 && it.err == nil {
			it.err = fmt.Errorf("mpi: %d trailing bytes after last sub-message", len(it.body))
		}
		return subMsg{}, false
	}
	it.left--
	tagU, n := binary.Uvarint(it.body)
	if n <= 0 {
		it.err = fmt.Errorf("mpi: truncated sub-message tag")
		return subMsg{}, false
	}
	it.body = it.body[n:]
	size, n := binary.Uvarint(it.body)
	if n <= 0 {
		it.err = fmt.Errorf("mpi: truncated sub-message size")
		return subMsg{}, false
	}
	it.body = it.body[n:]
	if len(it.body) < 24+int(size) {
		it.err = fmt.Errorf("mpi: sub-message needs %d bytes, frame has %d", 24+size, len(it.body))
		return subMsg{}, false
	}
	le := binary.LittleEndian
	m := subMsg{
		tag: unzigzag(tagU),
		hashes: match.InlineHashes{
			SrcTag: le.Uint64(it.body[0:]),
			Tag:    le.Uint64(it.body[8:]),
			Src:    le.Uint64(it.body[16:]),
		},
		payload: it.body[24 : 24+size : 24+size],
	}
	it.body = it.body[24+size:]
	return m, true
}

// subHeader presents one sub-message of a frame sent by src on comm as the
// standalone eager message it stands for, so the arrival path has one kind
// of data message to handle.
func subHeader(src, comm int32, m subMsg) header {
	return header{kind: kindEager, src: src, tag: m.tag, comm: comm,
		size: uint32(len(m.payload)), hashes: m.hashes}
}

// fillEnvelope populates env — which must be pool-fresh: EnvelopePool.Get
// hands out a reset envelope and fillEnvelope does not reset it again — with
// the matching envelope of a decoded message, reusing env's InlineHashes
// backing so the hot path allocates nothing. For eager messages, data must
// be the payload (which may alias a bounce buffer — the unexpected path is
// responsible for stabilizing it). For RTS messages the envelope carries
// the sender's memory key instead.
func fillEnvelope(env *match.Envelope, h header, data []byte) *match.Envelope {
	env.Source = match.Rank(h.src)
	env.Tag = match.Tag(h.tag)
	env.Comm = match.CommID(h.comm)
	env.Size = int(h.size)
	env.SetInline(h.hashes)
	switch h.kind {
	case kindEager:
		env.Data = data
	case kindRTS:
		env.SenderKey = h.rkey
	}
	return env
}

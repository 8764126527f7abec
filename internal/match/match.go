// Package match defines the shared vocabulary of MPI message matching —
// envelopes, receive requests, wildcards, and the matching rules imposed by
// the MPI standard — together with two receiver-side baseline engines: a
// traditional two-queue linked-list matcher (the on-CPU baseline used by
// mainstream MPI implementations) and a Flajslik-style binned matcher.
//
// The optimistic, offload-oriented engine that is the subject of the paper
// lives in package core and shares these types.
//
// Matching rules. A posted receive matches an incoming message when the
// communicators are equal, the receive's source is either AnySource or equal
// to the message source, and the receive's tag is either AnyTag or equal to
// the message tag. Two ordering constraints must hold:
//
//   - C1 (order of posted receives): if a message could match several posted
//     receives, the receive posted first wins.
//   - C2 (non-overtaking): if two messages from the same sender could match
//     the same receive, they match in the order they were sent.
package match

import "fmt"

// Rank identifies an MPI process within a communicator.
type Rank int32

// Tag is the user-defined message identifier.
type Tag int32

// CommID identifies a communicator (message channel).
type CommID int32

// Wildcards. Messages themselves never carry wildcards; only posted receives
// may use them (MPI §3.2.4).
const (
	// AnySource matches a message from any sender (MPI_ANY_SOURCE).
	AnySource Rank = -1
	// AnyTag matches a message with any tag (MPI_ANY_TAG).
	AnyTag Tag = -1
)

// WorldComm is the default communicator used when none is specified.
const WorldComm CommID = 0

// Envelope is the matching-relevant header of an incoming message.
// The Seq field is assigned by the receiver in arrival order and is what the
// non-overtaking constraint (C2) is expressed against.
type Envelope struct {
	Source Rank   // sending rank; never a wildcard
	Tag    Tag    // message tag; never a wildcard
	Comm   CommID // communicator
	Seq    uint64 // receiver-side arrival sequence number
	Size   int    // payload size in bytes
	Data   []byte // optional payload (eager protocol); may be nil
	// SenderKey carries rendezvous information (e.g. a remote memory key)
	// opaque to the matching layer. A zero key means the eager protocol.
	SenderKey uint64
	// Inline optionally carries sender-computed hash values from the
	// message header (the §IV-D "inline hash values" optimization); engines
	// configured to trust them skip hashing on the accelerator. Nil means
	// the header carried no hashes and the engine computes its own.
	Inline *InlineHashes

	// inlineScratch is a reusable backing for Inline owned by pooled
	// envelopes (see EnvelopePool): SetInline writes into it instead of
	// allocating, and Reset retains it across recycling.
	inlineScratch *InlineHashes
	// own is the reusable backing of a stabilized payload (see Stabilize),
	// owned and retained across recycling like inlineScratch.
	own []byte
}

// String implements fmt.Stringer for diagnostics.
func (e *Envelope) String() string {
	return fmt.Sprintf("msg{src=%d tag=%d comm=%d seq=%d size=%d}",
		e.Source, e.Tag, e.Comm, e.Seq, e.Size)
}

// Reset clears e for reuse, retaining its reusable Inline and payload
// backings.
func (e *Envelope) Reset() {
	*e = Envelope{inlineScratch: e.inlineScratch, own: e.own[:0]}
}

// Stabilize copies an eager payload that aliases somebody else's buffer (a
// bounce buffer about to be reposted) into e's own backing, so the message
// can wait in an unexpected store; the copy lives exactly as long as e does.
func (e *Envelope) Stabilize() {
	if e.Data != nil {
		e.own = append(e.own[:0], e.Data...)
		e.Data = e.own
	}
}

// SetInline records sender-computed hashes in e's reusable backing and
// points Inline at it, allocating the backing only on first use.
func (e *Envelope) SetInline(h InlineHashes) {
	if e.inlineScratch == nil {
		e.inlineScratch = new(InlineHashes)
	}
	*e.inlineScratch = h
	e.Inline = e.inlineScratch
}

// Recv is a posted receive request. Source and Tag may be wildcards.
// Label is assigned by the matching engine in posting order and is what the
// posted-receive-order constraint (C1) is expressed against.
type Recv struct {
	Source Rank   // requested source, or AnySource
	Tag    Tag    // requested tag, or AnyTag
	Comm   CommID // communicator
	Label  uint64 // engine-assigned posting-order label
	Buffer []byte // destination buffer; may be nil for header-only tests
	// User is an opaque completion cookie (e.g. an MPI request handle).
	User any
}

// String implements fmt.Stringer for diagnostics.
func (r *Recv) String() string {
	return fmt.Sprintf("recv{src=%d tag=%d comm=%d label=%d}",
		r.Source, r.Tag, r.Comm, r.Label)
}

// WildcardClass enumerates the four wildcard combinations a posted receive
// can use. The optimistic engine indexes each class separately (§III-B).
type WildcardClass uint8

const (
	// ClassNone: both source and tag are fully specified.
	ClassNone WildcardClass = iota
	// ClassSrcWild: source is AnySource, tag is specified.
	ClassSrcWild
	// ClassTagWild: tag is AnyTag, source is specified.
	ClassTagWild
	// ClassBothWild: both source and tag are wildcards.
	ClassBothWild
	// NumClasses is the number of wildcard classes.
	NumClasses = 4
)

// String implements fmt.Stringer.
func (c WildcardClass) String() string {
	switch c {
	case ClassNone:
		return "none"
	case ClassSrcWild:
		return "src-wild"
	case ClassTagWild:
		return "tag-wild"
	case ClassBothWild:
		return "both-wild"
	}
	return fmt.Sprintf("WildcardClass(%d)", uint8(c))
}

// Class reports the wildcard class of the receive.
func (r *Recv) Class() WildcardClass {
	switch {
	case r.Source == AnySource && r.Tag == AnyTag:
		return ClassBothWild
	case r.Source == AnySource:
		return ClassSrcWild
	case r.Tag == AnyTag:
		return ClassTagWild
	default:
		return ClassNone
	}
}

// Matches reports whether the receive matches the envelope under MPI rules.
func (r *Recv) Matches(e *Envelope) bool {
	if r.Comm != e.Comm {
		return false
	}
	if r.Source != AnySource && r.Source != e.Source {
		return false
	}
	if r.Tag != AnyTag && r.Tag != e.Tag {
		return false
	}
	return true
}

// Matcher is a receiver-side MPI matching engine. Implementations must
// satisfy constraints C1 and C2 when driven from a single goroutine; the
// optimistic engine in package core additionally supports block-parallel
// arrival processing.
type Matcher interface {
	// PostRecv presents a new receive request. If a stored unexpected
	// message matches it (honoring C2), that envelope is returned and
	// removed from the unexpected store; otherwise the receive is recorded
	// (honoring C1) and nil is returned.
	PostRecv(r *Recv) (*Envelope, bool)

	// Arrive presents a new incoming message. If a posted receive matches
	// (honoring C1), it is returned and removed from the posted store;
	// otherwise the message is stored as unexpected and nil is returned.
	Arrive(e *Envelope) (*Recv, bool)

	// PostedDepth returns the number of receives currently posted.
	PostedDepth() int

	// UnexpectedDepth returns the number of stored unexpected messages.
	UnexpectedDepth() int

	// Stats returns cumulative search statistics.
	Stats() Stats
}

// Pairing records one completed match, for golden-model comparison.
type Pairing struct {
	MsgSeq    uint64 // Envelope.Seq of the matched message
	RecvLabel uint64 // Recv.Label of the matched receive
}

package match

import "sync"

// EnvelopePool recycles Envelopes across arrival cycles so the steady-state
// arrival path performs no heap allocation per message. Each pooled
// envelope owns two backings that Reset retains: an InlineHashes value
// (filled via SetInline) and a payload buffer (filled via Stabilize), so
// neither decoding a wire header into a pooled envelope nor storing it as
// unexpected allocates once the pool is warm.
//
// Ownership protocol: Get hands out a zeroed envelope; the caller fills it,
// matches it, and must Put it back exactly once — after the match has been
// delivered (matched path) or after the unexpected store has released it
// and its payload has been copied out (unexpected path). Neither the
// envelope nor a stabilized Data may be referenced after Put: the next Get
// overwrites both.
//
// The zero value is ready to use.
type EnvelopePool struct {
	p sync.Pool
}

// Get returns a zeroed envelope. Its Inline field is nil until the caller
// installs hashes with SetInline.
func (ep *EnvelopePool) Get() *Envelope {
	if e, ok := ep.p.Get().(*Envelope); ok {
		return e
	}
	return new(Envelope)
}

// Put resets e (keeping its backings) and returns it to the pool.
// Putting nil is a no-op.
func (ep *EnvelopePool) Put(e *Envelope) {
	if e == nil {
		return
	}
	e.Reset()
	ep.p.Put(e)
}

package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/match"
)

// Descriptor states, stored in the low bits of the packed ownership word.
// Transitions: free → posted (PostRecv), posted → consumed (a matching
// thread's CAS — the authoritative claim), consumed → consumed with a LOWER
// block sequence (an earlier in-flight block steals the receive, see
// consume), consumed → free (unlink + release at block retirement).
const (
	stateFree uint64 = iota
	statePosted
	stateConsumed
)

// Ownership-word layout: state in bits [1:0], consuming thread ID in bits
// [7:2] (MaxBlockSize = 32 fits in 6 bits), consuming block sequence in the
// remaining 56 bits. Packing all three into one word makes claim, steal, and
// ownership re-check single atomic operations.
const (
	ownStateBits = 2
	ownTidBits   = 6
	ownSeqShift  = ownStateBits + ownTidBits
	ownStateMask = 1<<ownStateBits - 1
	ownTidMask   = 1<<ownTidBits - 1
)

func packConsumed(seq uint64, tid int) uint64 {
	return seq<<ownSeqShift | uint64(tid)<<ownStateBits | stateConsumed
}

func ownState(w uint64) uint64 { return w & ownStateMask }
func ownSeq(w uint64) uint64   { return w >> ownSeqShift }

// descriptor is a receive descriptor slot (§III-B: "receive descriptors are
// stored in a fixed-size table"). Each booking word packs a block epoch in
// the high 32 bits and the N-bit booking bitmap in the low 32, so bitmaps
// left over from finished blocks are invalidated without a clearing sweep;
// with several blocks in flight each ring slot gets its own booking word
// (slot = epoch mod MaxInFlightBlocks), so concurrent blocks never clobber
// each other's bookings.
//
// Chain links: next is atomic because matching threads traverse chains
// while an eager-removal peer may unlink entries; unlink never clears next,
// so a traverser standing on an unlinked entry falls through into the rest
// of the chain. prev is only touched under the bucket's remove lock.
type descriptor struct {
	recv  *match.Recv
	src   match.Rank
	tag   match.Tag
	comm  match.CommID
	class match.WildcardClass
	label uint64 // posting-order label (constraint C1 across indexes)
	seqID uint64 // compatible-sequence ID (§III-D3a fast path)

	// word is the packed ownership word: state | consuming tid | consuming
	// block sequence.
	word atomic.Uint64

	booking [MaxInFlightBlocks]atomic.Uint64 // per ring slot: epoch<<32 | bitmap

	next     atomic.Pointer[descriptor]
	prev     *descriptor
	owner    *rbucket // chain the descriptor lives in
	slot     int32    // index in the table, -1 for none
	unlinked bool     // set once removed from its chain
}

// bookingBits returns the bitmap for epoch cur if that epoch's ring slot
// still carries it, else 0.
func (d *descriptor) bookingBits(cur uint32) uint32 {
	w := d.booking[cur%MaxInFlightBlocks].Load()
	if uint32(w>>32) != cur {
		return 0
	}
	return uint32(w)
}

// book sets bit tid in the booking bitmap for epoch cur.
func (d *descriptor) book(cur uint32, tid int) {
	word := &d.booking[cur%MaxInFlightBlocks]
	for {
		w := word.Load()
		var bits uint32
		if uint32(w>>32) == cur {
			bits = uint32(w)
		}
		nw := uint64(cur)<<32 | uint64(bits|1<<uint(tid))
		if word.CompareAndSwap(w, nw) {
			return
		}
	}
}

// consume claims d for thread tid of block seq. A posted descriptor is taken
// outright. A descriptor provisionally consumed by a HIGHER-sequence block
// is stolen: the lower block serializes first, so its claim has precedence,
// and the higher block discovers the theft when it revalidates at
// retirement. A descriptor held at or below seq is permanently gone from
// this block's point of view. Steals only ever lower the owning sequence, so
// chains of steals terminate.
func (d *descriptor) consume(seq uint64, tid int) bool {
	ok, _ := d.consumeFrom(seq, tid)
	return ok
}

// consumeFrom is consume reporting provenance: on success, stolenFrom is
// the sequence of the higher block the descriptor was taken back from, or
// 0 when it was plainly posted (no steal).
func (d *descriptor) consumeFrom(seq uint64, tid int) (ok bool, stolenFrom uint64) {
	for {
		w := d.word.Load()
		switch ownState(w) {
		case statePosted:
			if d.word.CompareAndSwap(w, packConsumed(seq, tid)) {
				return true, 0
			}
		case stateConsumed:
			if ownSeq(w) <= seq {
				return false, 0
			}
			if d.word.CompareAndSwap(w, packConsumed(seq, tid)) {
				return true, ownSeq(w)
			}
		default:
			return false, 0 // free: mid-recycle, never a candidate
		}
	}
}

// takenFrom reports whether d is unavailable to a searcher in block seq:
// consumed at or below seq (a peer or an earlier block owns it for good).
// Descriptors consumed by higher-sequence blocks remain available — they are
// stealable.
func (d *descriptor) takenFrom(seq uint64) bool {
	w := d.word.Load()
	switch ownState(w) {
	case statePosted:
		return false
	case stateConsumed:
		return ownSeq(w) <= seq
	default:
		return true
	}
}

// ownedBy reports whether d is currently consumed by exactly (seq, tid) —
// the retirement-time revalidation check.
func (d *descriptor) ownedBy(seq uint64, tid int) bool {
	return d.word.Load() == packConsumed(seq, tid)
}

// isConsumed reports whether the descriptor has been consumed.
func (d *descriptor) isConsumed() bool { return ownState(d.word.Load()) == stateConsumed }

// markPosted publishes the descriptor as available (PostRecv and tests).
func (d *descriptor) markPosted() { d.word.Store(statePosted) }

// matches reports whether the descriptor's receive matches e.
func (d *descriptor) matches(e *match.Envelope) bool {
	if d.comm != e.Comm {
		return false
	}
	if d.src != match.AnySource && d.src != e.Source {
		return false
	}
	if d.tag != match.AnyTag && d.tag != e.Tag {
		return false
	}
	return true
}

// reclaim is one released descriptor waiting out its grace period: the slot
// may be reused once every block with sequence <= seq has retired, because
// only such blocks can still be traversing a chain the descriptor was
// unlinked from.
type reclaim struct {
	slot int32
	seq  uint64
}

// chunkSize is the number of descriptor slots materialized at a time.
const chunkSize = 64

// descriptorTable is the descriptor pool (§IV-E: a fixed table of 64-byte
// descriptors in the DPA memory model, charged whole at construction by
// ModelFootprint). On the host it materializes in chunkSize-slot chunks as
// posts need them, so an idle or shallow matcher does not pay for its
// capacity. A chunk never moves or shrinks: chains hold descriptor pointers
// and Block.cand holds slot numbers. It is self-locking: posts allocate
// while arrival blocks run. Release is epoch-based: a retiring block pushes
// its consumed descriptors onto a deferred FIFO tagged with the current
// block-sequence watermark, and alloc recycles entries only after the retire
// frontier has passed their tag, so no in-flight block can ever stand on a
// reused slot.
type descriptorTable struct {
	mu   sync.Mutex
	n    int // capacity (Config.MaxReceives)
	made int // slots materialized so far
	free []int32

	// chunks is the directory, sized for n at construction so it never
	// moves. Entries are published atomically: Block.anyLowerConflict calls
	// get with no lock while a concurrent post grows the table.
	chunks []atomic.Pointer[[chunkSize]descriptor]

	// deferred is a circular FIFO of released slots awaiting their grace
	// period, with room for every materialized slot; tags are monotone
	// because blocks retire in sequence order.
	deferred []reclaim
	defHead  int
	defLen   int

	// retired points at the matcher's retire frontier; nil (unit tests)
	// means release immediately.
	retired *atomic.Uint64

	// liveCount tracks allocated descriptors atomically so PostedDepth
	// snapshots do not need any lock. Between a thread's consume and the
	// block's retirement a consumed descriptor still counts — the counter
	// reflects an instant, not a linearized depth.
	liveCount atomic.Int64
}

func newDescriptorTable(n int) *descriptorTable {
	return &descriptorTable{
		n:      n,
		chunks: make([]atomic.Pointer[[chunkSize]descriptor], (n+chunkSize-1)/chunkSize),
	}
}

// alloc takes a free descriptor, or returns nil when the table is full
// (the ErrTableFull condition: n slots exist and none is reclaimable).
// Deferred releases whose grace period has expired are recycled before the
// table grows, so the materialized size tracks the peak posted depth, not
// the number of posts.
func (t *descriptorTable) alloc() *descriptor {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.free) == 0 {
		t.drainLocked()
		if len(t.free) == 0 && !t.growLocked() {
			return nil
		}
	}
	i := t.free[len(t.free)-1]
	t.free = t.free[:len(t.free)-1]
	d := t.get(i)
	d.next.Store(nil)
	d.prev = nil
	d.owner = nil
	d.unlinked = false
	t.liveCount.Add(1)
	return d
}

// growLocked materializes the next chunk, or reports false at capacity. The
// deferred ring must hold every materialized slot; when it no longer does
// it is re-laid out at twice the slot count (so ring copies stay linear in
// the table's size), pending entries kept in order.
func (t *descriptorTable) growLocked() bool {
	k := min(chunkSize, t.n-t.made)
	if k == 0 {
		return false
	}
	c := new([chunkSize]descriptor)
	for i := k - 1; i >= 0; i-- {
		c[i].slot = int32(t.made + i)
		t.free = append(t.free, c[i].slot)
	}
	t.chunks[t.made/chunkSize].Store(c)
	t.made += k

	if t.made > len(t.deferred) {
		ring := make([]reclaim, min(t.n, 2*t.made))
		for i := 0; i < t.defLen; i++ {
			ring[i] = t.deferred[(t.defHead+i)%len(t.deferred)]
		}
		t.deferred, t.defHead = ring, 0
	}
	return true
}

// drainLocked moves reclaimable deferred entries to the free list.
func (t *descriptorTable) drainLocked() {
	frontier := ^uint64(0)
	if t.retired != nil {
		frontier = t.retired.Load()
	}
	for t.defLen > 0 {
		rec := t.deferred[t.defHead]
		if rec.seq > frontier {
			break
		}
		t.free = append(t.free, rec.slot)
		t.defHead = (t.defHead + 1) % len(t.deferred)
		t.defLen--
	}
}

// release retires a consumed, unlinked descriptor; its slot becomes
// allocatable once every block with sequence <= afterSeq has retired.
// recv is deliberately NOT cleared: a higher in-flight block that was just
// robbed of d may still read it for a provisional result (re-derived at its
// own retirement), and the next allocation's field writes are ordered behind
// that block's retirement by the reclaim gate.
func (t *descriptorTable) release(d *descriptor, afterSeq uint64) {
	d.word.Store(stateFree)
	t.mu.Lock()
	t.deferred[(t.defHead+t.defLen)%len(t.deferred)] = reclaim{slot: d.slot, seq: afterSeq}
	t.defLen++
	t.mu.Unlock()
	t.liveCount.Add(-1)
}

// get returns the descriptor at slot i, which must have been materialized.
func (t *descriptorTable) get(i int32) *descriptor {
	return &t.chunks[uint32(i)/chunkSize].Load()[uint32(i)%chunkSize]
}

// live returns the number of allocated descriptors still in posted state.
func (t *descriptorTable) live() int {
	t.mu.Lock()
	made := t.made
	t.mu.Unlock()
	live := 0
	for i := 0; i < made; i++ {
		if ownState(t.get(int32(i)).word.Load()) == statePosted {
			live++
		}
	}
	return live
}

// capacity returns the table size.
func (t *descriptorTable) capacity() int { return t.n }

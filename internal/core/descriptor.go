package core

import (
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
// and Block.cand holds slot numbers. It has no lock of its own: allocation
// runs under the post lock (unexpected.mu) its only caller, PostRecv, holds,
// and release rides the retire section. Release is epoch-based: a retiring
// block queues its consumed descriptors on a deferred FIFO tagged with the
// newest block sequence launched, and alloc recycles entries only after the
// retire frontier has passed their tag, so no in-flight block can ever stand
// on a reused slot. alloc takes ring.mu (post lock → ring.mu, the one
// nesting; DESIGN.md §9) only when its free list runs dry.
type descriptorTable struct {
	n int // capacity (Config.MaxReceives)

	// chunks is the directory, sized for n at construction so it never
	// moves. Entries are published atomically: Block.anyLowerConflict calls
	// get with no lock while a concurrent post grows the table.
	chunks []atomic.Pointer[[chunkSize]descriptor]

	// Post side, guarded by the post lock.
	made   int // slots materialized so far
	free   []int32
	allocs uint64 // descriptors ever allocated

	// Retire side, guarded by ring.mu. deferred is a circular FIFO of
	// released slots awaiting their grace period, with room for every
	// materialized slot (it is re-laid out under both locks); tags are
	// monotone because blocks retire in sequence order.
	ring     *blockRing
	deferred []reclaim
	defHead  int
	defLen   int
	vacated  uint64 // descriptors ever queued for reclamation
}

func newDescriptorTable(n int, ring *blockRing) *descriptorTable {
	return &descriptorTable{
		n:      n,
		ring:   ring,
		chunks: make([]atomic.Pointer[[chunkSize]descriptor], (n+chunkSize-1)/chunkSize),
	}
}

// alloc takes a free descriptor, or returns nil when the table is full
// (the ErrTableFull condition: n slots exist and none is reclaimable).
// Deferred releases whose grace period has expired are recycled before the
// table grows, so the materialized size tracks the peak posted depth, not
// the number of posts. Caller holds the post lock.
func (t *descriptorTable) alloc() *descriptor {
	if len(t.free) == 0 && !t.refill() {
		return nil
	}
	i := t.free[len(t.free)-1]
	t.free = t.free[:len(t.free)-1]
	d := t.get(i)
	d.next.Store(nil)
	d.prev = nil
	d.owner = nil
	d.unlinked = false
	t.allocs++
	return d
}

// refill restocks the empty free list from the deferred queue, or failing
// that with a new chunk; false means the table is full. Caller holds the
// post lock.
func (t *descriptorTable) refill() bool {
	t.ring.mu.Lock()
	defer t.ring.mu.Unlock()
	for t.defLen > 0 && t.deferred[t.defHead].seq <= t.ring.retired {
		t.free = append(t.free, t.deferred[t.defHead].slot)
		t.defHead = (t.defHead + 1) % len(t.deferred)
		t.defLen--
	}
	return len(t.free) > 0 || t.growLocked()
}

// growLocked materializes the next chunk, or reports false at capacity. The
// deferred ring must hold every materialized slot; when it no longer does
// it is re-laid out at twice the slot count (so ring copies stay linear in
// the table's size), pending entries kept in order. Caller holds both locks.
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

// releaseLocked queues swept descriptors (consumed, unlinked, marked free)
// for reuse once every block launched so far has retired. The tag is read
// here, after the sweep that unlinked them, so it is never lower than one
// read at the unlink: the grace period only lengthens. Caller holds ring.mu.
func (t *descriptorTable) releaseLocked(slots []int32) {
	for _, slot := range slots {
		t.deferred[(t.defHead+t.defLen)%len(t.deferred)] = reclaim{slot: slot, seq: t.ring.next - 1}
		t.defLen++
	}
	t.vacated += uint64(len(slots))
}

// get returns the descriptor at slot i, which must have been materialized.
func (t *descriptorTable) get(i int32) *descriptor {
	return &t.chunks[uint32(i)/chunkSize].Load()[uint32(i)%chunkSize]
}

// capacity returns the table size.
func (t *descriptorTable) capacity() int { return t.n }

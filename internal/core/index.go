package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/match"
	"repro/internal/recycle"
)

// rbucket is one bin of a posted-receive index: a remove lock plus head and
// tail of a posting-ordered chain (§IV-E accounts it at 20 bytes: 4-byte
// lock + two 8-byte pointers). The head pointer is atomic because matching
// threads traverse the chain while a concurrent post appends or an
// eager-removal peer unlinks entries; the remove lock serializes the
// structural mutations (insert and unlink) per bucket, which is all the
// mutual exclusion the arrival path needs — there is no global matcher lock.
type rbucket struct {
	mu   sync.Mutex
	head atomic.Pointer[descriptor]
	tail *descriptor  // maintained under mu (inserts and unlinks)
	n    atomic.Int32 // live entries; atomic so occupancy snapshots are lock-free
}

// recvIndex is one of the four §III-B posted-receive indexes: a hash table
// of rbuckets (or a single chain for the both-wildcard class).
type recvIndex struct {
	nbins   int
	buckets []rbucket // allocated by the first insert, published by used

	// used is set, once, by the first insert — after it allocates the
	// buckets and before that post advances postHorizon. A searcher that
	// reads it false therefore holds a watermark below every receive the
	// index will ever contain, and may skip the index (searchOldest); one
	// that reads it true sees the buckets. A job that never posts a receive
	// of the index's wildcard class never pays for its table.
	used atomic.Bool
}

// bucketArrays holds the bucket arrays released matchers gave back (Release).
var bucketArrays recycle.ByLen[rbucket]

func newRecvIndex(bins int) *recvIndex {
	return &recvIndex{nbins: bins}
}

func (ix *recvIndex) bucketFor(hash uint64) *rbucket {
	return &ix.buckets[hash%uint64(len(ix.buckets))]
}

// insert appends d at the tail of its bucket chain under the bucket's remove
// lock (the tail races Finish-time unlink sweeps). Chains are posting-
// ordered because PostRecv serializes posts, and the post lock is also what
// makes the first insert the only one that allocates.
func (ix *recvIndex) insert(d *descriptor, hash uint64) {
	if !ix.used.Load() {
		ix.buckets = bucketArrays.Get(ix.nbins)
		ix.used.Store(true)
	}
	b := ix.bucketFor(hash)
	d.owner = b
	b.mu.Lock()
	if b.tail == nil {
		b.head.Store(d)
	} else {
		d.prev = b.tail
		b.tail.next.Store(d)
	}
	b.tail = d
	b.mu.Unlock()
	b.n.Add(1)
}

// unlink removes d from its chain. The caller must hold the bucket's remove
// lock. d.next is preserved so concurrent traversers standing on d fall
// through to the remainder of the chain.
func unlink(d *descriptor) {
	b := d.owner
	if b == nil || d.unlinked {
		return
	}
	next := d.next.Load()
	if d.prev == nil {
		b.head.Store(next)
	} else {
		d.prev.next.Store(next)
	}
	if next == nil {
		b.tail = d.prev
	} else {
		next.prev = d.prev
	}
	d.unlinked = true
	b.n.Add(-1)
}

// search walks the chain for hash and returns the oldest available
// descriptor matching e, plus the number of entries examined, on behalf of
// thread tid of block seq. Availability is relative to the searching block:
// posted entries and entries provisionally consumed by higher-sequence
// blocks (stealable) are candidates; entries consumed at or below seq are
// gone. Receives with labels at or past hzn were published after the block's
// visibility snapshot and are skipped without counting — they belong to the
// post-side future. With earlyCheck enabled, entries already booked in the
// block's epoch by a lower-numbered thread are skipped (§IV-D "early booking
// check"): the booking invariant guarantees such entries will be consumed
// within this block.
func (ix *recvIndex) search(e *match.Envelope, hash uint64, tid int, seq uint64, hzn uint64, earlyCheck bool) (*descriptor, uint64) {
	var traversed uint64
	lower := uint32(1)<<uint(tid) - 1
	epoch := uint32(seq)
	for d := ix.bucketFor(hash).head.Load(); d != nil; d = d.next.Load() {
		if d.label >= hzn {
			continue // posted after this block began: not yet visible
		}
		if d.takenFrom(seq) {
			traversed++
			continue
		}
		if !d.matches(e) {
			traversed++
			continue
		}
		if earlyCheck && d.bookingBits(epoch)&lower != 0 {
			traversed++
			continue
		}
		// The matched entry itself is not charged: "queue depth" counts the
		// elements searched through before the match (which is what lets the
		// Figure 7 averages drop below one as bins multiply).
		return d, traversed
	}
	return nil, traversed
}

// occupancy reports the number of empty bins and the maximum chain length.
// Counters are atomic, so the snapshot never blocks an in-flight block. A
// never-used index is all empty bins.
func (ix *recvIndex) occupancy() (empty, maxChain int) {
	if !ix.used.Load() {
		return ix.nbins, 0
	}
	for i := range ix.buckets {
		n := int(ix.buckets[i].n.Load())
		if n == 0 {
			empty++
		}
		if n > maxChain {
			maxChain = n
		}
	}
	return empty, maxChain
}

// bins returns the bucket count, allocated or not: the §IV-E model charges
// the whole table.
func (ix *recvIndex) bins() int { return ix.nbins }

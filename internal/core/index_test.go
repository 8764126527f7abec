package core

import (
	"testing"

	"repro/internal/match"
)

// makePosted builds a posted descriptor for index tests.
func makePosted(src match.Rank, tag match.Tag, label uint64) *descriptor {
	d := &descriptor{src: src, tag: tag, comm: 0, label: label, slot: -1}
	d.markPosted()
	return d
}

func TestIndexInsertSearchOrder(t *testing.T) {
	ix := newRecvIndex(8)
	h := match.HashSrcTag(1, 2, 0)
	a := makePosted(1, 2, 10)
	b := makePosted(1, 2, 11)
	ix.insert(a, h)
	ix.insert(b, h)
	e := &match.Envelope{Source: 1, Tag: 2}
	got, n := ix.search(e, h, 0, 1, ^uint64(0), false)
	if got != a {
		t.Fatalf("search returned label %d, want oldest (10)", got.label)
	}
	if n != 0 {
		t.Fatalf("traversed %d, want 0 (the matched entry is not charged)", n)
	}
}

func TestIndexSearchSkipsConsumed(t *testing.T) {
	ix := newRecvIndex(8)
	h := match.HashSrcTag(1, 2, 0)
	a := makePosted(1, 2, 10)
	b := makePosted(1, 2, 11)
	ix.insert(a, h)
	ix.insert(b, h)
	a.consume(1, 0)
	got, n := ix.search(&match.Envelope{Source: 1, Tag: 2}, h, 0, 1, ^uint64(0), false)
	if got != b {
		t.Fatal("consumed entry not skipped")
	}
	if n != 1 {
		t.Fatalf("traversed %d, want 1 (consumed entries still cost a probe)", n)
	}
}

func TestIndexEarlyBookingCheckSkips(t *testing.T) {
	ix := newRecvIndex(8)
	h := match.HashSrcTag(1, 2, 0)
	a := makePosted(1, 2, 10)
	b := makePosted(1, 2, 11)
	ix.insert(a, h)
	ix.insert(b, h)
	a.book(5, 0) // thread 0 booked a
	// Thread 2 with early check must skip a (bit 0 < 2) and find b.
	got, _ := ix.search(&match.Envelope{Source: 1, Tag: 2}, h, 2, 5, ^uint64(0), true)
	if got != b {
		t.Fatal("early booking check did not skip lower-booked entry")
	}
	// Thread 0 itself must not skip its own booking.
	got, _ = ix.search(&match.Envelope{Source: 1, Tag: 2}, h, 0, 5, ^uint64(0), true)
	if got != a {
		t.Fatal("thread 0 skipped its own booked entry")
	}
	// A stale epoch booking must not cause a skip.
	got, _ = ix.search(&match.Envelope{Source: 1, Tag: 2}, h, 2, 6, ^uint64(0), true)
	if got != a {
		t.Fatal("stale-epoch booking caused a skip")
	}
}

func TestIndexUnlinkMiddleKeepsNext(t *testing.T) {
	ix := newRecvIndex(1)
	a := makePosted(1, 1, 1)
	b := makePosted(1, 1, 2)
	c := makePosted(1, 1, 3)
	ix.insert(a, 0)
	ix.insert(b, 0)
	ix.insert(c, 0)
	unlink(b)
	// b's next pointer must survive so a traverser standing on b falls
	// through to c.
	if b.next.Load() != c {
		t.Fatal("unlink cleared next pointer")
	}
	// Chain must now be a -> c.
	if a.next.Load() != c || c.prev != a {
		t.Fatal("chain not relinked around b")
	}
	// Head/tail unlinks.
	unlink(a)
	if ix.buckets[0].head.Load() != c {
		t.Fatal("head unlink broken")
	}
	unlink(c)
	if ix.buckets[0].head.Load() != nil || ix.buckets[0].tail != nil {
		t.Fatal("tail unlink broken")
	}
	// Double unlink is a no-op, and so is a descriptor in no chain.
	unlink(c)
	unlink(&descriptor{})
}

func TestIndexOccupancy(t *testing.T) {
	ix := newRecvIndex(4)
	empty, maxChain := ix.occupancy()
	if empty != 4 || maxChain != 0 {
		t.Fatalf("fresh occupancy = (%d,%d), want (4,0)", empty, maxChain)
	}
	h := match.HashSrcTag(9, 9, 0)
	ix.insert(makePosted(9, 9, 1), h)
	ix.insert(makePosted(9, 9, 2), h)
	empty, maxChain = ix.occupancy()
	if empty != 3 || maxChain != 2 {
		t.Fatalf("occupancy = (%d,%d), want (3,2)", empty, maxChain)
	}
	if ix.bins() != 4 {
		t.Fatalf("bins = %d, want 4", ix.bins())
	}
}

// TestFreshMatcherOccupancy: an index allocates its buckets at its first
// insert, and until then reports what a zeroed table would, so a fresh
// matcher's Occupancy is every bin of the three binned indexes empty and
// no chain, and a receive allocates only the index of its wildcard class.
func TestFreshMatcherOccupancy(t *testing.T) {
	const bins = 64
	m := MustNew(Config{Bins: bins, MaxReceives: 16, BlockSize: 1})
	if empty, total, maxChain := m.Occupancy(); empty != 3*bins || total != 3*bins || maxChain != 0 {
		t.Fatalf("fresh occupancy = (%d,%d,%d), want (%d,%d,0)", empty, total, maxChain, 3*bins, 3*bins)
	}
	if _, _, err := m.PostRecv(&match.Recv{Source: 1, Tag: 2}); err != nil {
		t.Fatal(err)
	}
	if m.idxFull.buckets == nil {
		t.Fatal("insert left its index without buckets")
	}
	for _, ix := range []*recvIndex{m.idxSrcWild, m.idxTagWild, m.idxBoth} {
		if ix.buckets != nil || ix.used.Load() {
			t.Fatal("a fully specified receive allocated a wildcard index")
		}
	}
	if empty, total, maxChain := m.Occupancy(); empty != 3*bins-1 || total != 3*bins || maxChain != 1 {
		t.Fatalf("occupancy after one post = (%d,%d,%d), want (%d,%d,1)", empty, total, maxChain, 3*bins-1, 3*bins)
	}
	if fp := m.ModelFootprint(); fp.BinBytes != IndexTables*bins*BinModelBytes {
		t.Fatalf("model charges %d B of bins, want the whole tables", fp.BinBytes)
	}
}

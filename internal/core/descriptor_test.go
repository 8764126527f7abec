package core

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/match"
)

// consume is consumeFrom without the provenance.
func (d *descriptor) consume(seq uint64, tid int) bool {
	ok, _ := d.consumeFrom(seq, tid)
	return ok
}

// isConsumed reports whether the descriptor has been consumed.
func (d *descriptor) isConsumed() bool { return ownState(d.word.Load()) == stateConsumed }

// capacity returns the table size.
func (t *descriptorTable) capacity() int { return t.n }

func TestBookingEpochInvalidation(t *testing.T) {
	var d descriptor
	d.book(1, 3)
	if got := d.bookingBits(1); got != 1<<3 {
		t.Fatalf("bookingBits(1) = %b, want %b", got, 1<<3)
	}
	// A different epoch must see an empty bitmap without any clearing.
	if got := d.bookingBits(2); got != 0 {
		t.Fatalf("bookingBits(2) = %b, want 0", got)
	}
	// Epochs within the in-flight window occupy distinct ring slots, so
	// concurrent blocks never clobber each other's bookings.
	d.book(2, 0)
	if got := d.bookingBits(2); got != 1 {
		t.Fatalf("bookingBits(2) after book = %b, want 1", got)
	}
	if got := d.bookingBits(1); got != 1<<3 {
		t.Fatalf("in-flight epoch's word must survive, got %b", got)
	}
	// An epoch that recycles the ring slot replaces the stale word.
	d.book(1+MaxInFlightBlocks, 5)
	if got := d.bookingBits(1 + MaxInFlightBlocks); got != 1<<5 {
		t.Fatalf("bookingBits after slot reuse = %b, want %b", got, 1<<5)
	}
	if got := d.bookingBits(1); got != 0 {
		t.Fatalf("recycled slot's old epoch must read empty, got %b", got)
	}
}

func TestBookingAccumulatesWithinEpoch(t *testing.T) {
	var d descriptor
	for tid := 0; tid < MaxBlockSize; tid++ {
		d.book(7, tid)
	}
	if got := d.bookingBits(7); got != 0xFFFFFFFF {
		t.Fatalf("full booking = %x, want ffffffff", got)
	}
}

func TestBookingProperty(t *testing.T) {
	// For any set of (epoch, tid) bookings ending with a run in one epoch,
	// the bits visible for that epoch are exactly the union of that run.
	f := func(tids []uint8) bool {
		var d descriptor
		d.book(1, 5) // stale epoch noise
		var want uint32
		for _, raw := range tids {
			tid := int(raw % MaxBlockSize)
			d.book(2, tid)
			want |= 1 << uint(tid)
		}
		return d.bookingBits(2) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestConsumeIsExclusive(t *testing.T) {
	var d descriptor
	d.markPosted()
	if !d.consume(4, 0) {
		t.Fatal("first consume must win")
	}
	if d.consume(4, 1) {
		t.Fatal("a same-block peer must lose")
	}
	if !d.isConsumed() {
		t.Fatal("descriptor must be consumed")
	}
	if !d.ownedBy(4, 0) {
		t.Fatal("descriptor must be owned by (4, 0)")
	}
	if d.takenFrom(4) != true || d.takenFrom(3) != false {
		t.Fatal("availability must be relative to the viewer's block sequence")
	}
}

func TestConsumeStealOrder(t *testing.T) {
	// Lower-sequence blocks steal from higher ones, never the reverse: the
	// lower block serializes first, so its claim has precedence.
	var d descriptor
	d.markPosted()
	if !d.consume(4, 2) {
		t.Fatal("initial consume must win")
	}
	if d.consume(5, 0) {
		t.Fatal("a higher-sequence block must not steal from a lower one")
	}
	if !d.consume(3, 1) {
		t.Fatal("a lower-sequence block must steal from a higher one")
	}
	if !d.ownedBy(3, 1) {
		t.Fatal("ownership must transfer to the stealing block")
	}
	if d.consume(4, 2) {
		t.Fatal("the robbed block must not steal back")
	}
}

// release queues d as a retiring block does (sweep's free mark, then the
// retire section), with block tag the newest launched.
func release(tab *descriptorTable, d *descriptor, tag uint64) {
	d.word.Store(stateFree)
	r := tab.ring
	r.mu.Lock()
	r.next = tag + 1
	tab.releaseLocked([]int32{d.slot})
	r.mu.Unlock()
}

// live returns the number of materialized descriptors in posted state.
func (t *descriptorTable) live() int {
	live := 0
	for i := 0; i < t.made; i++ {
		if ownState(t.get(int32(i)).word.Load()) == statePosted {
			live++
		}
	}
	return live
}

func TestDescriptorTableAllocRelease(t *testing.T) {
	tab := newDescriptorTable(3, &blockRing{})
	if tab.capacity() != 3 {
		t.Fatalf("capacity = %d, want 3", tab.capacity())
	}
	a, b, c := tab.alloc(), tab.alloc(), tab.alloc()
	if a == nil || b == nil || c == nil {
		t.Fatal("allocation within capacity failed")
	}
	if tab.alloc() != nil {
		t.Fatal("allocation beyond capacity must fail")
	}
	a.markPosted()
	b.markPosted()
	c.markPosted()
	if tab.live() != 3 {
		t.Fatalf("live = %d, want 3", tab.live())
	}
	b.consume(1, 0)
	if tab.live() != 2 {
		t.Fatalf("live after consume = %d, want 2", tab.live())
	}
	release(tab, b, 0)
	d := tab.alloc()
	if d == nil {
		t.Fatal("released slot must be reusable")
	}
	if d.slot != b.slot {
		t.Fatalf("reused slot %d, want %d", d.slot, b.slot)
	}
}

func TestDescriptorTableDeferredReclaim(t *testing.T) {
	// With a retire frontier wired in, a released slot stays unavailable
	// until every block at or below its tag has retired.
	var ring blockRing
	tab := newDescriptorTable(1, &ring)
	a := tab.alloc()
	if a == nil {
		t.Fatal("allocation within capacity failed")
	}
	a.markPosted()
	a.consume(1, 0)
	release(tab, a, 2) // blocks 1 and 2 may still stand on the chain
	if tab.alloc() != nil {
		t.Fatal("slot reused while blocks <= tag are still in flight")
	}
	ring.retired = 1
	if tab.alloc() != nil {
		t.Fatal("slot reused before the frontier passed its tag")
	}
	ring.retired = 2
	if tab.alloc() == nil {
		t.Fatal("slot must be reusable once the frontier reaches its tag")
	}
}

// TestTableCapacityIsExact pins ErrTableFull on the chunk-grown table: the
// limit is MaxReceives simultaneously posted receives whatever the chunk
// arithmetic (below, at and just past a chunk boundary, and many chunks),
// and one consume + retire buys exactly one more post.
func TestTableCapacityIsExact(t *testing.T) {
	for _, n := range []int{1, 3, 64, 65, 1088, 4096} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			m := MustNew(Config{Bins: 32, MaxReceives: n, BlockSize: 1})
			post := func(tag int) error {
				_, _, err := m.PostRecv(&match.Recv{Source: 1, Tag: match.Tag(tag)})
				return err
			}
			for i := 0; i < n; i++ {
				if err := post(i); err != nil {
					t.Fatalf("post %d of %d: %v", i, n, err)
				}
			}
			if err := post(n); !errors.Is(err, ErrTableFull) {
				t.Fatalf("post past capacity: err = %v, want ErrTableFull", err)
			}
			if got := m.Stats().TableFull; got != 1 {
				t.Fatalf("TableFull = %d, want 1", got)
			}
			if res := m.Arrive(&match.Envelope{Source: 1, Tag: 0}); res.Unexpected {
				t.Fatal("arrival for a posted receive went unexpected")
			}
			if err := post(n); err != nil {
				t.Fatalf("post after consume + retire: %v", err)
			}
			if err := post(n + 1); !errors.Is(err, ErrTableFull) {
				t.Fatalf("second post after one retire: err = %v, want ErrTableFull", err)
			}
			if got := m.Stats().TableFull; got != 2 {
				t.Fatalf("TableFull = %d, want 2", got)
			}
			if m.table.made != n || m.PostedDepth() != n {
				t.Fatalf("materialized %d slots, %d posted, want %d of each", m.table.made, m.PostedDepth(), n)
			}
		})
	}
}

// TestTableReusesBeforeGrowing: retired slots are recycled before a new
// chunk is materialized, so the table's size follows the peak posted depth
// (100 here), not the number of posts (100 000).
func TestTableReusesBeforeGrowing(t *testing.T) {
	m := MustNew(Config{Bins: 64, MaxReceives: 4096, BlockSize: 32, InFlightBlocks: 1,
		EarlyBookingCheck: true})
	const depth = 100
	envs := make([]*match.Envelope, depth)
	for round := 0; round < 1000; round++ {
		for i := 0; i < depth; i++ {
			if _, _, err := m.PostRecv(&match.Recv{Source: 2, Tag: match.Tag(i)}); err != nil {
				t.Fatalf("round %d post %d: %v", round, i, err)
			}
			envs[i] = &match.Envelope{Source: 2, Tag: match.Tag(i)}
		}
		for _, res := range m.ArrivePipelined(envs) {
			if res.Unexpected {
				t.Fatalf("round %d: tag %d went unexpected", round, res.Env.Tag)
			}
		}
	}
	if chunks := (m.table.made + chunkSize - 1) / chunkSize; chunks > 4 {
		t.Fatalf("%d chunks materialized for a posted depth of %d, want <= 4", chunks, depth)
	}
}

// TestDeferredRingSurvivesGrowth queues releases so that the deferred ring
// wraps, grows the table (and with it the ring) underneath them, and checks
// that every one is reclaimed, in release order, as the frontier passes its
// tag.
func TestDeferredRingSurvivesGrowth(t *testing.T) {
	var ring blockRing
	tab := newDescriptorTable(8*chunkSize, &ring)

	// Two chunks fill the first ring (sized for two) exactly.
	held := make([]*descriptor, 2*chunkSize)
	for i := range held {
		held[i] = tab.alloc()
	}
	if tab.made != len(held) || len(tab.deferred) != len(held) {
		t.Fatalf("setup: made %d, ring %d, want %d of each", tab.made, len(tab.deferred), len(held))
	}
	// Move the ring's head off zero: immediate releases, re-allocated.
	for i := 0; i < 100; i++ {
		release(tab, held[0], 0)
		held[0] = tab.alloc()
	}
	// 50 gated releases now wrap the ring (positions 100..127, 0..21).
	var want []int32
	for i, d := range held[:50] {
		release(tab, d, uint64(i+1))
		want = append(want, d.slot)
	}
	if tab.defHead+tab.defLen <= len(tab.deferred) {
		t.Fatalf("setup: ring not wrapped (head %d, len %d of %d)", tab.defHead, tab.defLen, len(tab.deferred))
	}
	if d := tab.alloc(); d == nil || int(d.slot) < len(held) {
		t.Fatalf("alloc with nothing reclaimable must grow, got %v", d)
	}
	if tab.made != 3*chunkSize || len(tab.deferred) < tab.made || tab.defLen != 50 {
		t.Fatalf("after growth: made %d, ring %d, pending %d", tab.made, len(tab.deferred), tab.defLen)
	}

	// refill is what alloc calls on an empty free list; here the fresh slots
	// of the growth above stay below what it drains.
	reclaimed := func() []int32 {
		before := len(tab.free)
		tab.refill()
		return append([]int32(nil), tab.free[before:]...)
	}
	ring.retired = 25
	got := reclaimed()
	if len(got) != 25 {
		t.Fatalf("frontier 25 reclaimed %d entries, want 25", len(got))
	}
	ring.retired = 50
	got = append(got, reclaimed()...)
	if !slices.Equal(got, want) || tab.defLen != 0 {
		t.Fatalf("reclaimed %v (%d still pending), want %v", got, tab.defLen, want)
	}
}

var newSink *OptimisticMatcher

// TestNewHeapBytes is the construction-cost guard: a matcher pays for its
// receive buckets, descriptors, deferred-ring entries, unexpected bins and
// default sink only on use. The analyzer builds one matcher per rank shard
// per bin count and a daemon one per rank per job, so neither shape may
// cost more than a few kilobytes whatever its bin count.
func TestNewHeapBytes(t *testing.T) {
	for _, c := range []struct {
		name  string
		cfg   Config
		limit uint64
	}{
		{"analyzer", Config{Bins: 32, MaxReceives: 4096, BlockSize: 1}, 32 << 10},
		{"paper", DefaultConfig(), 16 << 10},
	} {
		const rounds = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < rounds; i++ {
			newSink = MustNew(c.cfg)
		}
		runtime.ReadMemStats(&after)
		per := (after.TotalAlloc - before.TotalAlloc) / rounds
		t.Logf("%s shape: core.New allocates %d B", c.name, per)
		if per > c.limit {
			t.Errorf("%s shape: core.New allocates %d B, limit %d", c.name, per, c.limit)
		}
	}
}

func TestDescriptorMatches(t *testing.T) {
	d := descriptor{src: match.AnySource, tag: 7, comm: 1}
	if !d.matches(&match.Envelope{Source: 99, Tag: 7, Comm: 1}) {
		t.Fatal("AnySource descriptor must match any source")
	}
	if d.matches(&match.Envelope{Source: 99, Tag: 8, Comm: 1}) {
		t.Fatal("tag mismatch must not match")
	}
	if d.matches(&match.Envelope{Source: 99, Tag: 7, Comm: 2}) {
		t.Fatal("comm mismatch must not match")
	}
}

func TestLowestBit(t *testing.T) {
	cases := []struct {
		v    uint32
		want int
	}{{0, 64}, {1, 0}, {0b1000, 3}, {0b1010, 1}, {1 << 31, 31}}
	for _, c := range cases {
		if got := lowestBit(c.v); got != c.want {
			t.Errorf("lowestBit(%b) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestPathString(t *testing.T) {
	names := map[Path]string{
		PathOptimistic: "optimistic",
		PathFast:       "fast",
		PathSlow:       "slow",
		PathUnexpected: "unexpected",
		Path(99):       "Path(99)",
	}
	for p, want := range names {
		if got := p.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", p, got, want)
		}
	}
}

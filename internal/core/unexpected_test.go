package core

import (
	"sync"
	"testing"

	"repro/internal/match"
)

func TestUnexpectedQuadrupleIndexing(t *testing.T) {
	s := newUnexpectedStore(16)
	s.insert(&match.Envelope{Source: 3, Tag: 9, Seq: 1})
	if s.len() != 1 {
		t.Fatalf("len = %d, want 1", s.len())
	}
	// Each wildcard class of receive must find the same single message.
	classes := []*match.Recv{
		{Source: 3, Tag: 9},
		{Source: match.AnySource, Tag: 9},
		{Source: 3, Tag: match.AnyTag},
		{Source: match.AnySource, Tag: match.AnyTag},
	}
	for _, r := range classes {
		s2 := newUnexpectedStore(16)
		s2.insert(&match.Envelope{Source: 3, Tag: 9, Seq: 1})
		env, _ := s2.takeMatch(r)
		if env == nil {
			t.Fatalf("class %v did not find the message", r.Class())
		}
		if s2.len() != 0 {
			t.Fatalf("class %v: message not removed from all indexes", r.Class())
		}
	}
}

func TestUnexpectedRemoveFromAllStructures(t *testing.T) {
	s := newUnexpectedStore(16)
	s.insert(&match.Envelope{Source: 1, Tag: 1, Seq: 1})
	s.insert(&match.Envelope{Source: 1, Tag: 2, Seq: 2})
	// Take the first via the full-key index.
	if env, _ := s.takeMatch(&match.Recv{Source: 1, Tag: 1}); env == nil {
		t.Fatal("full-key take failed")
	}
	// The removed message must be invisible to every other index.
	if env, _ := s.takeMatch(&match.Recv{Source: match.AnySource, Tag: 1}); env != nil {
		t.Fatal("removed message still visible in tag index")
	}
	if env, _ := s.takeMatch(&match.Recv{Source: 1, Tag: match.AnyTag}); env == nil || env.Seq != 2 {
		t.Fatal("source index returned the wrong message")
	}
	if s.len() != 0 {
		t.Fatalf("len = %d, want 0", s.len())
	}
}

func TestUnexpectedSortedInsertOutOfOrder(t *testing.T) {
	// Blocks can finalize unexpected messages slightly out of order; the
	// chains must still end up sequence-sorted.
	s := newUnexpectedStore(8)
	for _, seq := range []uint64{3, 1, 4, 2, 5} {
		s.insert(&match.Envelope{Source: 1, Tag: 1, Seq: seq})
	}
	for want := uint64(1); want <= 5; want++ {
		env, _ := s.takeMatch(&match.Recv{Source: match.AnySource, Tag: match.AnyTag})
		if env == nil || env.Seq != want {
			t.Fatalf("takeMatch returned seq %v, want %d", env, want)
		}
	}
}

func TestUnexpectedDepthCounting(t *testing.T) {
	s := newUnexpectedStore(1) // single bin: worst-case chains
	for i := 1; i <= 5; i++ {
		s.insert(&match.Envelope{Source: 9, Tag: match.Tag(i), Seq: uint64(i)})
	}
	// A full-key receive for the last message walks past the four earlier
	// entries (the matched one is not charged).
	_, depth := s.takeMatch(&match.Recv{Source: 9, Tag: 5})
	if depth != 4 {
		t.Fatalf("depth = %d, want 4", depth)
	}
	// No match still reports the traversal cost.
	_, depth = s.takeMatch(&match.Recv{Source: 9, Tag: 99})
	if depth != 4 {
		t.Fatalf("miss depth = %d, want 4", depth)
	}
}

func TestUnexpectedConcurrentInsert(t *testing.T) {
	s := newUnexpectedStore(32)
	var wg sync.WaitGroup
	const n = 64
	for i := 1; i <= n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s.insert(&match.Envelope{Source: match.Rank(i % 4), Tag: 1, Seq: uint64(i)})
		}(i)
	}
	wg.Wait()
	if s.len() != n {
		t.Fatalf("len = %d, want %d", s.len(), n)
	}
	// Wildcard receives must drain in sequence order regardless of the
	// insertion interleaving.
	last := uint64(0)
	for i := 0; i < n; i++ {
		env, _ := s.takeMatch(&match.Recv{Source: match.AnySource, Tag: match.AnyTag})
		if env == nil {
			t.Fatalf("drain stopped early at %d", i)
		}
		if env.Seq <= last {
			t.Fatalf("order violated: %d after %d", env.Seq, last)
		}
		last = env.Seq
	}
}

func TestUnexpectedCommIsolation(t *testing.T) {
	s := newUnexpectedStore(8)
	s.insert(&match.Envelope{Source: 1, Tag: 1, Comm: 5, Seq: 1})
	if env, _ := s.takeMatch(&match.Recv{Source: 1, Tag: 1, Comm: 6}); env != nil {
		t.Fatal("matched across communicators")
	}
	if env, _ := s.takeMatch(&match.Recv{Source: match.AnySource, Tag: match.AnyTag, Comm: 5}); env == nil {
		t.Fatal("same-comm wildcard should match")
	}
}

func TestUnexpectedPeek(t *testing.T) {
	s := newUnexpectedStore(8)
	s.insert(&match.Envelope{Source: 4, Tag: 2, Seq: 1})
	// Peek finds without consuming, across classes.
	for _, r := range []*match.Recv{
		{Source: 4, Tag: 2},
		{Source: match.AnySource, Tag: 2},
		{Source: 4, Tag: match.AnyTag},
		{Source: match.AnySource, Tag: match.AnyTag},
	} {
		got, ok := s.peek(r)
		if !ok || got != (match.Probed{Source: 4, Tag: 2}) {
			t.Fatalf("peek class %v failed", r.Class())
		}
	}
	if s.len() != 1 {
		t.Fatal("peek consumed the message")
	}
	if _, ok := s.peek(&match.Recv{Source: 9, Tag: 9}); ok {
		t.Fatal("peek invented a message")
	}
}

// TestUnexpectedBinsOnFirstInsert: searching a store nothing was ever
// inserted into allocates no bin array, and the first insert builds arrays
// that index correctly at the smallest and the paper's bin counts.
func TestUnexpectedBinsOnFirstInsert(t *testing.T) {
	for _, bins := range []int{1, 2048} {
		s := newUnexpectedStore(bins)
		r := &match.Recv{Source: 3, Tag: 9}
		if _, ok := s.peek(r); ok {
			t.Fatal("peek on an empty store found a message")
		}
		if env, depth := s.takeMatch(r); env != nil || depth != 0 {
			t.Fatalf("takeMatch on an empty store = %v, depth %d", env, depth)
		}
		if s.bySrcTag != nil || s.byTag != nil || s.bySrc != nil {
			t.Fatal("searching an empty store allocated bin arrays")
		}

		env := &match.Envelope{Source: 3, Tag: 9, Comm: 1, Seq: 1}
		s.insert(env)
		if len(s.bySrcTag) != bins || len(s.byTag) != bins || len(s.bySrc) != bins {
			t.Fatalf("bins=%d: arrays sized %d/%d/%d", bins, len(s.bySrcTag), len(s.byTag), len(s.bySrc))
		}
		n := uint64(bins)
		for name, c := range map[string]*uchain{
			"bySrcTag": &s.bySrcTag[match.HashSrcTag(3, 9, 1)%n],
			"byTag":    &s.byTag[match.HashTag(9, 1)%n],
			"bySrc":    &s.bySrc[match.HashSrc(3, 1)%n],
			"all":      &s.all,
		} {
			if c.head == nil || c.head.env != env || c.n != 1 {
				t.Fatalf("bins=%d: %s does not hold the message in its bin", bins, name)
			}
		}
		for _, r := range []*match.Recv{
			{Source: 3, Tag: 9, Comm: 1},
			{Source: match.AnySource, Tag: 9, Comm: 1},
			{Source: 3, Tag: match.AnyTag, Comm: 1},
			{Source: match.AnySource, Tag: match.AnyTag, Comm: 1},
		} {
			if got, ok := s.peek(r); !ok || got != env.Probed() {
				t.Fatalf("bins=%d: peek class %v missed the message", bins, r.Class())
			}
		}
		if got, _ := s.takeMatch(&match.Recv{Source: match.AnySource, Tag: 9, Comm: 1}); got != env || s.len() != 0 {
			t.Fatalf("bins=%d: takeMatch did not remove the message", bins)
		}
	}
}

// TestUnexpectedInsertInlineHashes: a message whose header carried the
// sender's hashes (§IV-D) and one whose hashes the store computes land in
// the same chain of every structure.
func TestUnexpectedInsertInlineHashes(t *testing.T) {
	s := newUnexpectedStore(16)
	plain := &match.Envelope{Source: 5, Tag: 11, Comm: 2, Seq: 1}
	inline := &match.Envelope{Source: 5, Tag: 11, Comm: 2, Seq: 2}
	inline.SetInline(match.ComputeInlineHashes(inline))
	s.insert(plain)
	s.insert(inline)
	first := s.all.head
	second := first.links[linkAll].next
	if first.env != plain || second == nil || second.env != inline {
		t.Fatal("arrival-order list does not hold the two messages in order")
	}
	for li := 0; li < numLinks; li++ {
		if first.chain[li] != second.chain[li] {
			t.Errorf("structure %d: computed and inline hashes chose different chains", li)
		}
	}
	// And receives find them oldest first.
	for want, r := range []*match.Recv{
		{Source: 5, Tag: 11, Comm: 2},
		{Source: match.AnySource, Tag: 11, Comm: 2},
	} {
		if env, _ := s.takeMatch(r); env == nil || env.Seq != uint64(want+1) {
			t.Fatalf("class %v took %v, want seq %d", r.Class(), env, want+1)
		}
	}
}

// checkStoreInvariants walks a store the way nothing in the matcher does:
// each of the four structures holds exactly s.n entries, every chain is
// sorted by Seq and owns the entries it links, and the free list shares no
// entry with a chain and pins nothing. It returns the free list's length.
func checkStoreInvariants(tb testing.TB, s *unexpectedStore) int {
	tb.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	live := make(map[*uentry]bool, s.n)
	for e := s.all.head; e != nil; e = e.links[linkAll].next {
		live[e] = true
	}
	walk := func(name string, li int, chain func(i int) *uchain, chains int) {
		total := 0
		for i := 0; i < chains; i++ {
			c, n := chain(i), 0
			var prev *uentry
			for e := c.head; e != nil; prev, e = e, e.links[li].next {
				switch {
				case !live[e]:
					tb.Fatalf("%s holds an entry the arrival-order list does not", name)
				case e.env == nil || e.chain[li] != c || e.links[li].prev != prev:
					tb.Fatalf("%s: entry %v is mislinked", name, e.env)
				case prev != nil && prev.env.Seq >= e.env.Seq:
					tb.Fatalf("%s: seq %d before %d", name, prev.env.Seq, e.env.Seq)
				}
				n++
			}
			if n != c.n || c.tail != prev {
				tb.Fatalf("%s: chain counts %d entries and holds %d", name, c.n, n)
			}
			total += n
		}
		if total != s.n {
			tb.Fatalf("%s holds %d entries, the store %d", name, total, s.n)
		}
	}
	walk("bySrcTag", linkSrcTag, func(i int) *uchain { return &s.bySrcTag[i] }, len(s.bySrcTag))
	walk("byTag", linkTag, func(i int) *uchain { return &s.byTag[i] }, len(s.byTag))
	walk("bySrc", linkSrc, func(i int) *uchain { return &s.bySrc[i] }, len(s.bySrc))
	walk("all", linkAll, func(int) *uchain { return &s.all }, 1)

	free := 0
	for e := s.free; e != nil; e = e.links[0].next {
		rest := *e
		if rest.links[0].next = nil; live[e] || rest != (uentry{}) {
			tb.Fatalf("free entry %d is live or pins something: %+v", free, *e)
		}
		free++
	}
	return free
}

// storeCycle stores 64 messages with distinct keys, then drains them with
// 64 receives, 16 of each wildcard class, every one of which must match.
// Entries therefore leave by all four chains, whichever chain found them.
type storeCycle struct {
	m     *OptimisticMatcher
	envs  [64]match.Envelope
	recvs [64]match.Recv
}

func (c *storeCycle) store(tb testing.TB) {
	for i := range c.envs {
		c.envs[i] = match.Envelope{Source: match.Rank(i % 8), Tag: match.Tag(i / 8)}
		if res := c.m.Arrive(&c.envs[i]); !res.Unexpected {
			tb.Fatalf("message %d matched an empty table", i)
		}
	}
}

func (c *storeCycle) drain(tb testing.TB) {
	for i := range c.recvs {
		// Most specific first, so that no wildcard takes a message a later
		// exact receive names: 48-63 exact, 32-47 by tag, 0-31 by source
		// (two of each source's four), the rest by arrival order.
		r := match.Recv{Source: match.Rank(i % 8), Tag: match.Tag((63 - i) / 8)}
		switch i / 16 {
		case 1:
			r.Source = match.AnySource
		case 2:
			r.Tag = match.AnyTag
		case 3:
			r.Source, r.Tag = match.AnySource, match.AnyTag
		}
		c.recvs[i] = r
		if env, ok, err := c.m.PostRecv(&c.recvs[i]); err != nil || !ok || !c.recvs[i].Matches(env) {
			tb.Fatalf("receive %d (%v): %v, %v, %v", i, &c.recvs[i], env, ok, err)
		}
	}
}

func newStoreCycle() *storeCycle {
	return &storeCycle{m: MustNew(Config{Bins: 32, MaxReceives: 4096, BlockSize: 1})}
}

// TestUnexpectedStoreRecyclesEntries is the store's allocation guard: once
// one cycle has built the entries, storing and taking messages allocates
// nothing, the free list never outgrows the store's high-water mark, and a
// free entry pins no envelope, chain or neighbour.
func TestUnexpectedStoreRecyclesEntries(t *testing.T) {
	c := newStoreCycle()
	s := c.m.unexpected
	for round := 0; round < 3; round++ {
		c.store(t)
		if free := checkStoreInvariants(t, s); free != 0 || s.n != len(c.envs) {
			t.Fatalf("round %d, stored: %d entries live, %d free", round, s.n, free)
		}
		c.drain(t)
		if free := checkStoreInvariants(t, s); free != len(c.envs) || s.n != 0 {
			t.Fatalf("round %d, drained: %d entries live, %d free, high-water mark %d", round, s.n, free, len(c.envs))
		}
	}
	if allocs := testing.AllocsPerRun(20, func() { c.store(t); c.drain(t) }); allocs != 0 {
		t.Fatalf("%d stores and takes allocate %.1f times", len(c.envs), allocs)
	}
}

// BenchmarkUnexpectedRoundTrip measures one message through the store:
// stored by Arrive, taken by a receive of one of the four classes.
func BenchmarkUnexpectedRoundTrip(b *testing.B) {
	c := newStoreCycle()
	b.ReportAllocs()
	for done := 0; done < b.N; done += len(c.envs) {
		c.store(b)
		c.drain(b)
	}
}

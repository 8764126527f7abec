package match

import "testing"

func TestBinMatcherBasicExpected(t *testing.T) {
	m := NewBinMatcher(32)
	m.PostRecv(&Recv{Source: 3, Tag: 8})
	r, ok := m.Arrive(&Envelope{Source: 3, Tag: 8})
	if !ok || r.Source != 3 || r.Tag != 8 {
		t.Fatalf("expected match failed: %v ok=%v", r, ok)
	}
}

func TestBinMatcherBasicUnexpected(t *testing.T) {
	m := NewBinMatcher(32)
	m.Arrive(&Envelope{Source: 3, Tag: 8})
	e, ok := m.PostRecv(&Recv{Source: 3, Tag: 8})
	if !ok || e.Source != 3 {
		t.Fatalf("unexpected match failed: %v ok=%v", e, ok)
	}
	if m.UnexpectedDepth() != 0 {
		t.Fatal("unexpected store not emptied")
	}
}

func TestBinMatcherRejectsZeroBins(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBinMatcher(0) must panic")
		}
	}()
	NewBinMatcher(0)
}

func TestBinMatcherC1AcrossBinAndWildcard(t *testing.T) {
	// A wildcard receive posted before a specific one must win (C1), even
	// though they live in different structures.
	m := NewBinMatcher(32)
	m.PostRecv(&Recv{Source: AnySource, Tag: 4}) // label 0, wildcard list
	m.PostRecv(&Recv{Source: 6, Tag: 4})         // label 1, bin
	r, ok := m.Arrive(&Envelope{Source: 6, Tag: 4})
	if !ok || r.Label != 0 {
		t.Fatalf("C1 across structures violated: got label %d, want 0", r.Label)
	}
	// And the reverse posting order must pick the bin entry.
	m2 := NewBinMatcher(32)
	m2.PostRecv(&Recv{Source: 6, Tag: 4})         // label 0, bin
	m2.PostRecv(&Recv{Source: AnySource, Tag: 4}) // label 1, wildcard
	r2, ok := m2.Arrive(&Envelope{Source: 6, Tag: 4})
	if !ok || r2.Label != 0 {
		t.Fatalf("C1 reversed violated: got label %d, want 0", r2.Label)
	}
}

func TestBinMatcherWildcardReceiveSeesArrivalOrder(t *testing.T) {
	// Unexpected messages with different keys land in different bins, but a
	// wildcard receive must still take the globally oldest one (C2).
	m := NewBinMatcher(64)
	m.Arrive(&Envelope{Source: 1, Tag: 10, Seq: 1})
	m.Arrive(&Envelope{Source: 2, Tag: 20, Seq: 2})
	m.Arrive(&Envelope{Source: 3, Tag: 30, Seq: 3})
	e, ok := m.PostRecv(&Recv{Source: AnySource, Tag: AnyTag})
	if !ok || e.Seq != 1 {
		t.Fatalf("wildcard receive got seq %d, want 1", e.Seq)
	}
	// The taken message must be gone from its bin too: a specific receive
	// for it must now queue.
	if _, ok := m.PostRecv(&Recv{Source: 1, Tag: 10}); ok {
		t.Fatal("message matched twice (bin unlink missing)")
	}
}

func TestBinMatcherSpecificReceiveBinRemovalUnlinksGlobal(t *testing.T) {
	m := NewBinMatcher(64)
	m.Arrive(&Envelope{Source: 1, Tag: 10, Seq: 1})
	m.Arrive(&Envelope{Source: 2, Tag: 20, Seq: 2})
	// Specific receive consumes the first message via its bin.
	if e, ok := m.PostRecv(&Recv{Source: 1, Tag: 10}); !ok || e.Seq != 1 {
		t.Fatal("specific receive failed")
	}
	// Wildcard receive must now see only the second message.
	e, ok := m.PostRecv(&Recv{Source: AnySource, Tag: AnyTag})
	if !ok || e.Seq != 2 {
		t.Fatalf("global unlink missing: wildcard got seq %d, want 2", e.Seq)
	}
	if m.UnexpectedDepth() != 0 {
		t.Fatal("unexpected store should be empty")
	}
}

func TestBinMatcherSameKeyFIFO(t *testing.T) {
	m := NewBinMatcher(8)
	for i := 1; i <= 4; i++ {
		m.Arrive(&Envelope{Source: 5, Tag: 5, Seq: uint64(i)})
	}
	for i := 1; i <= 4; i++ {
		e, ok := m.PostRecv(&Recv{Source: 5, Tag: 5})
		if !ok || e.Seq != uint64(i) {
			t.Fatalf("same-key FIFO violated at %d: got %d", i, e.Seq)
		}
	}
}

func TestBinMatcherOneBinDegeneratesToList(t *testing.T) {
	// With one bin the search depths must equal the traditional matcher's.
	lm := NewListMatcher()
	bm := NewBinMatcher(1)
	ops := []struct {
		post bool
		src  Rank
		tag  Tag
	}{
		{true, 1, 1}, {true, 2, 2}, {true, 3, 3},
		{false, 3, 3}, {false, 2, 2}, {false, 1, 1},
	}
	for _, op := range ops {
		if op.post {
			lm.PostRecv(&Recv{Source: op.src, Tag: op.tag})
			bm.PostRecv(&Recv{Source: op.src, Tag: op.tag})
		} else {
			lm.Arrive(&Envelope{Source: op.src, Tag: op.tag})
			bm.Arrive(&Envelope{Source: op.src, Tag: op.tag})
		}
	}
	if lm.Stats().ArriveTraversed != bm.Stats().ArriveTraversed {
		t.Fatalf("1-bin traversal %d != list traversal %d",
			bm.Stats().ArriveTraversed, lm.Stats().ArriveTraversed)
	}
}

func TestBinMatcherDepthCollapsesWithBins(t *testing.T) {
	// The Figure 7 effect in miniature: distinct (src,tag) receives spread
	// across bins, so per-arrival search depth collapses.
	run := func(bins int) float64 {
		m := NewBinMatcher(bins)
		const n = 256
		for i := 0; i < n; i++ {
			m.PostRecv(&Recv{Source: Rank(i % 16), Tag: Tag(i / 16)})
		}
		for i := n - 1; i >= 0; i-- { // worst order for a list
			m.Arrive(&Envelope{Source: Rank(i % 16), Tag: Tag(i / 16)})
		}
		return m.Stats().AvgArriveDepth()
	}
	d1, d32, d128 := run(1), run(32), run(128)
	if d32 >= d1/4 {
		t.Errorf("32 bins: depth %.2f did not collapse from %.2f", d32, d1)
	}
	if d128 >= d32 {
		t.Errorf("128 bins: depth %.2f did not improve on %.2f", d128, d32)
	}
}

func TestBinMatcherOccupancy(t *testing.T) {
	m := NewBinMatcher(16)
	empty, maxChain := m.BinOccupancy()
	if empty != 16 || maxChain != 0 {
		t.Fatalf("fresh table occupancy wrong: empty=%d max=%d", empty, maxChain)
	}
	for i := 0; i < 8; i++ {
		m.PostRecv(&Recv{Source: Rank(i), Tag: Tag(i)})
	}
	empty, maxChain = m.BinOccupancy()
	if empty > 16-1 || maxChain < 1 {
		t.Fatalf("occupancy after posts wrong: empty=%d max=%d", empty, maxChain)
	}
}

func TestBinMatcherCommIsolation(t *testing.T) {
	m := NewBinMatcher(32)
	m.PostRecv(&Recv{Source: 1, Tag: 1, Comm: 0})
	if _, ok := m.Arrive(&Envelope{Source: 1, Tag: 1, Comm: 9}); ok {
		t.Fatal("matched across communicators")
	}
}

func TestBinMatcherStatsReset(t *testing.T) {
	m := NewBinMatcher(4)
	m.Arrive(&Envelope{Source: 1, Tag: 1})
	if m.Stats().ArriveSearches == 0 {
		t.Fatal("stats not recorded")
	}
	if NewBinMatcher(4).Stats() != (Stats{}) {
		t.Fatal("a fresh matcher starts with statistics")
	}
	if m.Bins() != 4 {
		t.Fatalf("Bins() = %d, want 4", m.Bins())
	}
}

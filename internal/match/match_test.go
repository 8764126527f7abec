package match

import (
	"testing"
	"testing/quick"
)

func TestRecvClass(t *testing.T) {
	cases := []struct {
		src  Rank
		tag  Tag
		want WildcardClass
	}{
		{3, 7, ClassNone},
		{AnySource, 7, ClassSrcWild},
		{3, AnyTag, ClassTagWild},
		{AnySource, AnyTag, ClassBothWild},
		{0, 0, ClassNone},
	}
	for _, c := range cases {
		r := &Recv{Source: c.src, Tag: c.tag}
		if got := r.Class(); got != c.want {
			t.Errorf("Recv{src=%d tag=%d}.Class() = %v, want %v", c.src, c.tag, got, c.want)
		}
	}
}

func TestWildcardClassString(t *testing.T) {
	names := map[WildcardClass]string{
		ClassNone:     "none",
		ClassSrcWild:  "src-wild",
		ClassTagWild:  "tag-wild",
		ClassBothWild: "both-wild",
	}
	for c, want := range names {
		if got := c.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", c, got, want)
		}
	}
	if got := WildcardClass(9).String(); got != "WildcardClass(9)" {
		t.Errorf("unknown class string = %q", got)
	}
}

func TestMatchesRules(t *testing.T) {
	e := &Envelope{Source: 5, Tag: 11, Comm: 2}
	cases := []struct {
		r    Recv
		want bool
	}{
		{Recv{Source: 5, Tag: 11, Comm: 2}, true},
		{Recv{Source: AnySource, Tag: 11, Comm: 2}, true},
		{Recv{Source: 5, Tag: AnyTag, Comm: 2}, true},
		{Recv{Source: AnySource, Tag: AnyTag, Comm: 2}, true},
		{Recv{Source: 4, Tag: 11, Comm: 2}, false},
		{Recv{Source: 5, Tag: 10, Comm: 2}, false},
		{Recv{Source: 5, Tag: 11, Comm: 3}, false},
		{Recv{Source: AnySource, Tag: AnyTag, Comm: 3}, false},
	}
	for i, c := range cases {
		if got := c.r.Matches(e); got != c.want {
			t.Errorf("case %d: %v.Matches(%v) = %v, want %v", i, &c.r, e, got, c.want)
		}
	}
}

func TestEnvelopeString(t *testing.T) {
	e := &Envelope{Source: 1, Tag: 2, Comm: 3, Seq: 4, Size: 5}
	want := "msg{src=1 tag=2 comm=3 seq=4 size=5}"
	if got := e.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	r := &Recv{Source: 1, Tag: 2, Comm: 3, Label: 4}
	wantR := "recv{src=1 tag=2 comm=3 label=4}"
	if got := r.String(); got != wantR {
		t.Errorf("String() = %q, want %q", got, wantR)
	}
}

func TestHashesDifferByRole(t *testing.T) {
	// The three hash families must not alias each other for equal inputs,
	// otherwise a src-wild lookup could hit a tag-wild bucket.
	src, tag, comm := Rank(7), Tag(7), CommID(0)
	hst := HashSrcTag(src, tag, comm)
	ht := HashTag(tag, comm)
	hs := HashSrc(src, comm)
	if hst == ht || hst == hs || ht == hs {
		t.Errorf("hash families alias: srcTag=%x tag=%x src=%x", hst, ht, hs)
	}
}

func TestHashDeterminism(t *testing.T) {
	f := func(src int32, tag int32, comm int32) bool {
		a := HashSrcTag(Rank(src), Tag(tag), CommID(comm))
		b := HashSrcTag(Rank(src), Tag(tag), CommID(comm))
		return a == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHashSpread(t *testing.T) {
	// Consecutive tags from one source must spread over bins: this is the
	// assumption behind the paper's Figure 7 queue-depth collapse.
	const bins = 32
	counts := make([]int, bins)
	for tag := Tag(0); tag < 512; tag++ {
		counts[HashSrcTag(3, tag, 0)%bins]++
	}
	// Perfect spread would be 16 per bin; reject pathological clustering.
	for i, c := range counts {
		if c > 40 {
			t.Errorf("bin %d has %d of 512 consecutive tags (poor spread)", i, c)
		}
	}
}

func TestComputeInlineHashes(t *testing.T) {
	e := &Envelope{Source: 9, Tag: 42, Comm: 1}
	h := ComputeInlineHashes(e)
	if h.SrcTag != HashSrcTag(9, 42, 1) {
		t.Error("SrcTag mismatch")
	}
	if h.Tag != HashTag(42, 1) {
		t.Error("Tag mismatch")
	}
	if h.Src != HashSrc(9, 1) {
		t.Error("Src mismatch")
	}
}

func TestStatsAccumulation(t *testing.T) {
	var s Stats
	s.recordArrive(3)
	s.recordArrive(5)
	s.recordPost(2)
	if s.ArriveSearches != 2 || s.ArriveTraversed != 8 || s.ArriveMaxDepth != 5 {
		t.Errorf("arrive stats wrong: %+v", s)
	}
	if s.PostSearches != 1 || s.PostTraversed != 2 || s.PostMaxDepth != 2 {
		t.Errorf("post stats wrong: %+v", s)
	}
	if got := s.AvgArriveDepth(); got != 4.0 {
		t.Errorf("AvgArriveDepth = %v, want 4", got)
	}
	if got := s.AvgPostDepth(); got != 2.0 {
		t.Errorf("AvgPostDepth = %v, want 2", got)
	}
}

func TestStatsZeroDivision(t *testing.T) {
	var s Stats
	if s.AvgArriveDepth() != 0 || s.AvgPostDepth() != 0 {
		t.Error("empty stats must average to zero")
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{ArriveSearches: 1, ArriveTraversed: 4, ArriveMaxDepth: 4, Matched: 1}
	b := Stats{ArriveSearches: 2, ArriveTraversed: 2, ArriveMaxDepth: 2, Unexpected: 1,
		PostSearches: 1, PostTraversed: 7, PostMaxDepth: 7, Queued: 3}
	c := a.Add(b)
	if c.ArriveSearches != 3 || c.ArriveTraversed != 6 || c.ArriveMaxDepth != 4 {
		t.Errorf("Add arrive wrong: %+v", c)
	}
	if c.PostSearches != 1 || c.PostMaxDepth != 7 {
		t.Errorf("Add post wrong: %+v", c)
	}
	if c.Matched != 1 || c.Unexpected != 1 || c.Queued != 3 {
		t.Errorf("Add counters wrong: %+v", c)
	}
}

package match

import "testing"

func TestListExpectedMessage(t *testing.T) {
	m := NewListMatcher()
	if _, ok := m.PostRecv(&Recv{Source: 1, Tag: 5}); ok {
		t.Fatal("empty UMQ must not match")
	}
	if m.PostedDepth() != 1 {
		t.Fatalf("PostedDepth = %d, want 1", m.PostedDepth())
	}
	r, ok := m.Arrive(&Envelope{Source: 1, Tag: 5})
	if !ok {
		t.Fatal("expected message must match posted receive")
	}
	if r.Source != 1 || r.Tag != 5 {
		t.Fatalf("wrong receive matched: %v", r)
	}
	if m.PostedDepth() != 0 || m.UnexpectedDepth() != 0 {
		t.Fatal("queues must be empty after match")
	}
}

func TestListUnexpectedMessage(t *testing.T) {
	m := NewListMatcher()
	if _, ok := m.Arrive(&Envelope{Source: 2, Tag: 9}); ok {
		t.Fatal("empty PRQ must not match")
	}
	if m.UnexpectedDepth() != 1 {
		t.Fatalf("UnexpectedDepth = %d, want 1", m.UnexpectedDepth())
	}
	e, ok := m.PostRecv(&Recv{Source: 2, Tag: 9})
	if !ok {
		t.Fatal("posting receive must match stored unexpected message")
	}
	if e.Source != 2 || e.Tag != 9 {
		t.Fatalf("wrong envelope matched: %v", e)
	}
	if m.UnexpectedDepth() != 0 {
		t.Fatal("UMQ must be empty after match")
	}
}

func TestListC1PostedOrder(t *testing.T) {
	// Two receives can match the same message; the first-posted must win.
	m := NewListMatcher()
	m.PostRecv(&Recv{Source: AnySource, Tag: 3}) // label 0
	m.PostRecv(&Recv{Source: 1, Tag: 3})         // label 1
	r, ok := m.Arrive(&Envelope{Source: 1, Tag: 3})
	if !ok || r.Label != 0 {
		t.Fatalf("C1 violated: matched label %d, want 0", r.Label)
	}
}

func TestListC2NonOvertaking(t *testing.T) {
	// Two messages from the same sender match the same receive; they must
	// complete in send order.
	m := NewListMatcher()
	m.Arrive(&Envelope{Source: 4, Tag: 1, Seq: 1})
	m.Arrive(&Envelope{Source: 4, Tag: 1, Seq: 2})
	e1, ok := m.PostRecv(&Recv{Source: 4, Tag: 1})
	if !ok || e1.Seq != 1 {
		t.Fatalf("C2 violated: first receive got seq %d, want 1", e1.Seq)
	}
	e2, ok := m.PostRecv(&Recv{Source: 4, Tag: 1})
	if !ok || e2.Seq != 2 {
		t.Fatalf("C2 violated: second receive got seq %d, want 2", e2.Seq)
	}
}

func TestListWildcardReceiveTakesOldestUnexpected(t *testing.T) {
	m := NewListMatcher()
	m.Arrive(&Envelope{Source: 7, Tag: 1, Seq: 1})
	m.Arrive(&Envelope{Source: 2, Tag: 1, Seq: 2})
	e, ok := m.PostRecv(&Recv{Source: AnySource, Tag: 1})
	if !ok || e.Source != 7 {
		t.Fatalf("wildcard receive matched src %d, want oldest (7)", e.Source)
	}
}

func TestListNoMatchAcrossComms(t *testing.T) {
	m := NewListMatcher()
	m.PostRecv(&Recv{Source: 1, Tag: 1, Comm: 0})
	if _, ok := m.Arrive(&Envelope{Source: 1, Tag: 1, Comm: 1}); ok {
		t.Fatal("message must not match receive on a different communicator")
	}
	if m.PostedDepth() != 1 || m.UnexpectedDepth() != 1 {
		t.Fatal("both entries must remain queued")
	}
}

func TestListLabelsMonotonic(t *testing.T) {
	m := NewListMatcher()
	var last uint64
	for i := 0; i < 100; i++ {
		r := &Recv{Source: Rank(i), Tag: 1}
		m.PostRecv(r)
		if i > 0 && r.Label <= last {
			t.Fatalf("labels not monotonic: %d after %d", r.Label, last)
		}
		last = r.Label
	}
}

func TestListSeqAssignment(t *testing.T) {
	m := NewListMatcher()
	e1 := &Envelope{Source: 0, Tag: 0}
	e2 := &Envelope{Source: 0, Tag: 0}
	m.Arrive(e1)
	m.Arrive(e2)
	if e1.Seq == 0 || e2.Seq <= e1.Seq {
		t.Fatalf("arrival seq not assigned in order: %d, %d", e1.Seq, e2.Seq)
	}
	// Pre-assigned sequence numbers are preserved.
	e3 := &Envelope{Source: 0, Tag: 0, Seq: 999}
	m.Arrive(e3)
	if e3.Seq != 999 {
		t.Fatalf("pre-assigned seq overwritten: %d", e3.Seq)
	}
}

func TestListSearchDepthStats(t *testing.T) {
	m := NewListMatcher()
	for i := 0; i < 10; i++ {
		m.PostRecv(&Recv{Source: Rank(i), Tag: 0})
	}
	// A message for the last receive walks past nine non-matching entries.
	m.Arrive(&Envelope{Source: 9, Tag: 0})
	st := m.Stats()
	if st.ArriveMaxDepth != 9 {
		t.Fatalf("ArriveMaxDepth = %d, want 9", st.ArriveMaxDepth)
	}
	m.ResetStats()
	if m.Stats().ArriveSearches != 0 {
		t.Fatal("ResetStats did not clear")
	}
}

func TestListInterleavedRemoval(t *testing.T) {
	// Remove from the middle of the PRQ and make sure the chain stays intact.
	m := NewListMatcher()
	for i := 0; i < 5; i++ {
		m.PostRecv(&Recv{Source: Rank(i), Tag: 0})
	}
	if r, ok := m.Arrive(&Envelope{Source: 2, Tag: 0}); !ok || r.Source != 2 {
		t.Fatal("middle removal failed")
	}
	// Remaining receives still matchable, in order.
	want := []Rank{0, 1, 3, 4}
	for _, src := range want {
		if r, ok := m.Arrive(&Envelope{Source: src, Tag: 0}); !ok || r.Source != src {
			t.Fatalf("receive for src %d lost after middle removal", src)
		}
	}
	if m.PostedDepth() != 0 {
		t.Fatalf("PostedDepth = %d, want 0", m.PostedDepth())
	}
}

func TestListTailRemovalThenAppend(t *testing.T) {
	m := NewListMatcher()
	m.PostRecv(&Recv{Source: 0, Tag: 0})
	m.PostRecv(&Recv{Source: 1, Tag: 0})
	m.Arrive(&Envelope{Source: 1, Tag: 0}) // removes tail
	m.PostRecv(&Recv{Source: 2, Tag: 0})   // append must still work
	if r, ok := m.Arrive(&Envelope{Source: 2, Tag: 0}); !ok || r.Source != 2 {
		t.Fatal("append after tail removal broken")
	}
	if r, ok := m.Arrive(&Envelope{Source: 0, Tag: 0}); !ok || r.Source != 0 {
		t.Fatal("head entry lost")
	}
}

func TestListUMQMiddleRemoval(t *testing.T) {
	m := NewListMatcher()
	m.Arrive(&Envelope{Source: 0, Tag: 0})
	m.Arrive(&Envelope{Source: 1, Tag: 0})
	m.Arrive(&Envelope{Source: 2, Tag: 0})
	if e, ok := m.PostRecv(&Recv{Source: 1, Tag: 0}); !ok || e.Source != 1 {
		t.Fatal("UMQ middle removal failed")
	}
	if e, ok := m.PostRecv(&Recv{Source: AnySource, Tag: AnyTag}); !ok || e.Source != 0 {
		t.Fatal("UMQ order broken after middle removal")
	}
	if e, ok := m.PostRecv(&Recv{Source: AnySource, Tag: AnyTag}); !ok || e.Source != 2 {
		t.Fatal("UMQ tail lost after removals")
	}
}

func TestListPeekUnexpected(t *testing.T) {
	m := NewListMatcher()
	m.Arrive(&Envelope{Source: 3, Tag: 4, Seq: 1})
	env, ok := m.PeekUnexpected(&Recv{Source: AnySource, Tag: 4})
	if !ok || env.Seq != 1 {
		t.Fatal("peek failed")
	}
	if m.UnexpectedDepth() != 1 {
		t.Fatal("peek consumed")
	}
	if _, ok := m.PeekUnexpected(&Recv{Source: 3, Tag: 9}); ok {
		t.Fatal("peek invented a message")
	}
}

// listCycle is one fill and drain of both queues over preallocated records:
// 32 receives posted and then matched from the tail inwards (removals from
// the middle and the end of the PRQ), then 32 messages stored and taken the
// same way.
type listCycle struct {
	m     *ListMatcher
	recvs [32]Recv
	envs  [32]Envelope
}

func (c *listCycle) run(tb testing.TB) {
	n := len(c.recvs)
	for i := range c.recvs {
		c.recvs[i] = Recv{Source: 1, Tag: Tag(i)}
		c.m.PostRecv(&c.recvs[i])
	}
	for i := range c.envs {
		c.envs[i] = Envelope{Source: 1, Tag: Tag(n - 1 - i)}
		if r, ok := c.m.Arrive(&c.envs[i]); !ok || r != &c.recvs[n-1-i] {
			tb.Fatalf("message %d matched %v", i, r)
		}
	}
	for i := range c.envs {
		c.envs[i] = Envelope{Source: 2, Tag: Tag(i)}
		c.m.Arrive(&c.envs[i])
	}
	for i := range c.recvs {
		c.recvs[i] = Recv{Source: 2, Tag: Tag(n - 1 - i)}
		if env, ok := c.m.PostRecv(&c.recvs[i]); !ok || env != &c.envs[n-1-i] {
			tb.Fatalf("receive %d took %v", i, env)
		}
	}
}

// TestListMatcherSteadyStateAllocs is the list matcher's allocation guard:
// once one cycle has built the PRQ and UMQ nodes, post-then-arrive and
// arrive-then-post allocate nothing, and a free node pins no record.
func TestListMatcherSteadyStateAllocs(t *testing.T) {
	c := &listCycle{m: NewListMatcher()}
	c.run(t)
	if allocs := testing.AllocsPerRun(20, func() { c.run(t) }); allocs != 0 {
		t.Fatalf("a cycle of %d posts and %d arrivals allocates %.1f times", 2*len(c.recvs), 2*len(c.envs), allocs)
	}
	free := 0
	for n := c.m.prq.free; n != nil; n = n.next {
		if free++; n.recv != nil {
			t.Fatal("a free PRQ node pins its receive")
		}
	}
	for n := c.m.umq.free; n != nil; n = n.next {
		if free++; n.env != nil {
			t.Fatal("a free UMQ node pins its envelope")
		}
	}
	if want := len(c.recvs) + len(c.envs); free != want || c.m.PostedDepth()+c.m.UnexpectedDepth() != 0 {
		t.Fatalf("%d free nodes after a drain, high-water mark %d", free, want)
	}
}

// BenchmarkListPostArrive measures one message through the list matcher,
// by way of the PRQ or the UMQ, on recycled nodes.
func BenchmarkListPostArrive(b *testing.B) {
	c := &listCycle{m: NewListMatcher()}
	b.ReportAllocs()
	for done := 0; done < b.N; done += 2 * len(c.envs) {
		c.run(b)
	}
}

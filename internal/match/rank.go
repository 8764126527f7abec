package match

// RankMatcher is the rank-based baseline of the paper's Table I (Dózsa et
// al., "Enabling concurrent multithreaded MPI communication on multicore
// petascale systems"): posted receives and unexpected messages are
// partitioned per source rank, so threads handling different senders never
// contend and searches only walk one sender's queue. Receives with a
// source wildcard cannot be partitioned and live in a shared posting-
// ordered list, checked against every arrival; posting labels arbitrate
// between the partitions and the wildcard list (C1).
//
// RankMatcher is not safe for concurrent use.
type RankMatcher struct {
	posted    map[Rank]*binChain // fully specified receives per source
	wildcards wildList           // AnySource receives, posting order
	postedN   int

	unexp    map[Rank]*umChain // unexpected messages per source
	unexpAll umGlobal          // arrival order (for AnySource receives)

	nextLabel uint64
	nextSeq   uint64
	stats     Stats
}

// NewRankMatcher returns an empty rank-based matcher.
func NewRankMatcher() *RankMatcher {
	return &RankMatcher{
		posted: make(map[Rank]*binChain),
		unexp:  make(map[Rank]*umChain),
	}
}

func (m *RankMatcher) postedChain(src Rank) *binChain {
	c := m.posted[src]
	if c == nil {
		c = &binChain{}
		m.posted[src] = c
	}
	return c
}

func (m *RankMatcher) unexpChain(src Rank) *umChain {
	c := m.unexp[src]
	if c == nil {
		c = &umChain{}
		m.unexp[src] = c
	}
	return c
}

// PostRecv implements Matcher.
func (m *RankMatcher) PostRecv(r *Recv) (*Envelope, bool) {
	r.Label = m.nextLabel
	m.nextLabel++

	var depth uint64
	if r.Source != AnySource {
		// Only this sender's messages can match: walk its queue.
		for e := m.unexpChain(r.Source).head; e != nil; e = e.binNext {
			if r.Matches(e.env) {
				m.removeUnexpected(e)
				m.stats.recordPost(depth)
				m.stats.Matched++
				return e.env, true
			}
			depth++
		}
		m.stats.recordPost(depth)
		m.stats.Queued++
		m.postedChain(r.Source).push(r)
		m.postedN++
		return nil, false
	}

	// AnySource: the partitioning cannot help; walk arrival order.
	for e := m.unexpAll.head; e != nil; e = e.allNext {
		if r.Matches(e.env) {
			m.removeUnexpected(e)
			m.stats.recordPost(depth)
			m.stats.Matched++
			return e.env, true
		}
		depth++
	}
	m.stats.recordPost(depth)
	m.stats.Queued++
	m.wildcards.push(r)
	m.postedN++
	return nil, false
}

func (m *RankMatcher) removeUnexpected(e *umEntry) {
	m.unexp[Rank(e.bin)].remove(e)
	m.unexpAll.remove(e)
}

// Arrive implements Matcher: the sender's partition and the wildcard list
// are both searched; the older posting label wins (C1).
func (m *RankMatcher) Arrive(e *Envelope) (*Recv, bool) {
	if e.Seq == 0 {
		m.nextSeq++
		e.Seq = m.nextSeq
	}

	var depth uint64
	var partCand *binEntry
	if c := m.posted[e.Source]; c != nil {
		for be := c.head; be != nil; be = be.next {
			if be.recv.Matches(e) {
				partCand = be
				break
			}
			depth++
		}
	}
	var wildCand *wildEntry
	for we := m.wildcards.head; we != nil; we = we.next {
		if we.recv.Matches(e) {
			wildCand = we
			break
		}
		depth++
	}
	m.stats.recordArrive(depth)

	switch {
	case partCand != nil && (wildCand == nil || partCand.recv.Label < wildCand.recv.Label):
		m.posted[e.Source].remove(partCand)
		m.postedN--
		m.stats.Matched++
		return partCand.recv, true
	case wildCand != nil:
		m.wildcards.remove(wildCand)
		m.postedN--
		m.stats.Matched++
		return wildCand.recv, true
	}

	ue := &umEntry{env: e, bin: int(e.Source)}
	m.unexpChain(e.Source).push(ue)
	m.unexpAll.push(ue)
	m.stats.Unexpected++
	return nil, false
}

// PostedDepth implements Matcher.
func (m *RankMatcher) PostedDepth() int { return m.postedN }

// UnexpectedDepth implements Matcher.
func (m *RankMatcher) UnexpectedDepth() int { return m.unexpAll.n }

// Stats implements Matcher.
func (m *RankMatcher) Stats() Stats { return m.stats }

var _ Matcher = (*RankMatcher)(nil)

package match

// BinMatcher is a Flajslik-style binned matching engine ("Mitigating MPI
// message matching misery", ISC 2016), the software bin-based baseline the
// paper builds on. Posted receives without wildcards are hashed by
// (source, tag, communicator) into b bins, each bin an arrival-ordered
// chain; receives with wildcards live in a separate posting-ordered list.
// Posting-order labels play the role of Flajslik's timestamps: when a
// message could match both a binned receive and a wildcard receive, the
// smaller label wins (C1).
//
// Unexpected messages are hashed by their full key into b bins and
// additionally threaded on a global arrival-ordered list so wildcard
// receives can search them in order (C2).
//
// BinMatcher is not safe for concurrent use.
type BinMatcher struct {
	bins      int
	posted    []binChain // non-wildcard posted receives, one chain per bin
	wildcards wildList   // posted receives with any wildcard, posting order
	postedN   int

	unexpBins []umChain // unexpected messages hashed by full key
	unexpAll  umGlobal  // all unexpected messages in arrival order

	nextLabel uint64
	nextSeq   uint64
	stats     Stats
}

// NewBinMatcher returns a binned matcher with the given number of bins per
// hash table. bins must be at least 1; one bin degenerates to the
// traditional linked-list behaviour.
func NewBinMatcher(bins int) *BinMatcher {
	if bins < 1 {
		panic("match: NewBinMatcher requires bins >= 1")
	}
	return &BinMatcher{
		bins:      bins,
		posted:    make([]binChain, bins),
		unexpBins: make([]umChain, bins),
	}
}

// Bins returns the configured bin count.
func (m *BinMatcher) Bins() int { return m.bins }

type binEntry struct {
	recv       *Recv
	next, prev *binEntry
}

// binChain is a doubly linked arrival-ordered chain of posted receives.
type binChain struct {
	head, tail *binEntry
	n          int
}

func (c *binChain) push(r *Recv) *binEntry {
	e := &binEntry{recv: r}
	if c.tail == nil {
		c.head = e
	} else {
		c.tail.next = e
		e.prev = c.tail
	}
	c.tail = e
	c.n++
	return e
}

func (c *binChain) remove(e *binEntry) {
	if e.prev == nil {
		c.head = e.next
	} else {
		e.prev.next = e.next
	}
	if e.next == nil {
		c.tail = e.prev
	} else {
		e.next.prev = e.prev
	}
	e.next, e.prev = nil, nil
	c.n--
}

type wildEntry struct {
	recv       *Recv
	next, prev *wildEntry
}

// wildList is a doubly linked posting-ordered list of wildcard receives.
type wildList struct {
	head, tail *wildEntry
	n          int
}

func (l *wildList) push(r *Recv) *wildEntry {
	e := &wildEntry{recv: r}
	if l.tail == nil {
		l.head = e
	} else {
		l.tail.next = e
		e.prev = l.tail
	}
	l.tail = e
	l.n++
	return e
}

func (l *wildList) remove(e *wildEntry) {
	if e.prev == nil {
		l.head = e.next
	} else {
		e.prev.next = e.next
	}
	if e.next == nil {
		l.tail = e.prev
	} else {
		e.next.prev = e.prev
	}
	e.next, e.prev = nil, nil
	l.n--
}

// umEntry is an unexpected message threaded on both its hash bin and the
// global arrival list, so it can be unlinked from both in O(1) whichever
// structure found it.
type umEntry struct {
	env              *Envelope
	binNext, binPrev *umEntry
	allNext, allPrev *umEntry
	bin              int
}

type umChain struct {
	head, tail *umEntry
	n          int
}

func (c *umChain) push(e *umEntry) {
	if c.tail == nil {
		c.head = e
	} else {
		c.tail.binNext = e
		e.binPrev = c.tail
	}
	c.tail = e
	c.n++
}

func (c *umChain) remove(e *umEntry) {
	if e.binPrev == nil {
		c.head = e.binNext
	} else {
		e.binPrev.binNext = e.binNext
	}
	if e.binNext == nil {
		c.tail = e.binPrev
	} else {
		e.binNext.binPrev = e.binPrev
	}
	e.binNext, e.binPrev = nil, nil
	c.n--
}

type umGlobal struct {
	head, tail *umEntry
	n          int
}

func (g *umGlobal) push(e *umEntry) {
	if g.tail == nil {
		g.head = e
	} else {
		g.tail.allNext = e
		e.allPrev = g.tail
	}
	g.tail = e
	g.n++
}

func (g *umGlobal) remove(e *umEntry) {
	if e.allPrev == nil {
		g.head = e.allNext
	} else {
		e.allPrev.allNext = e.allNext
	}
	if e.allNext == nil {
		g.tail = e.allPrev
	} else {
		e.allNext.allPrev = e.allPrev
	}
	e.allNext, e.allPrev = nil, nil
	g.n--
}

func (m *BinMatcher) binFor(src Rank, tag Tag, comm CommID) int {
	return int(HashSrcTag(src, tag, comm) % uint64(m.bins))
}

// removeUnexpected unlinks an unexpected entry from both structures.
func (m *BinMatcher) removeUnexpected(e *umEntry) {
	m.unexpBins[e.bin].remove(e)
	m.unexpAll.remove(e)
}

// PostRecv implements Matcher.
func (m *BinMatcher) PostRecv(r *Recv) (*Envelope, bool) {
	r.Label = m.nextLabel
	m.nextLabel++

	var depth uint64
	if r.Class() == ClassNone {
		// Only messages with exactly this key can match: search that bin.
		bin := m.binFor(r.Source, r.Tag, r.Comm)
		for e := m.unexpBins[bin].head; e != nil; e = e.binNext {
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
		m.posted[bin].push(r)
		m.postedN++
		return nil, false
	}

	// Wildcard receive: search all unexpected messages in arrival order.
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

// Arrive implements Matcher. The message's bin chain and the wildcard list
// are both searched; the candidate with the smaller posting label wins (C1).
func (m *BinMatcher) Arrive(e *Envelope) (*Recv, bool) {
	if e.Seq == 0 {
		m.nextSeq++
		e.Seq = m.nextSeq
	}

	var depth uint64
	bin := m.binFor(e.Source, e.Tag, e.Comm)

	var binCand *binEntry
	for be := m.posted[bin].head; be != nil; be = be.next {
		if be.recv.Matches(e) {
			binCand = be
			break
		}
		depth++
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
	case binCand != nil && (wildCand == nil || binCand.recv.Label < wildCand.recv.Label):
		m.posted[bin].remove(binCand)
		m.postedN--
		m.stats.Matched++
		return binCand.recv, true
	case wildCand != nil:
		m.wildcards.remove(wildCand)
		m.postedN--
		m.stats.Matched++
		return wildCand.recv, true
	}

	ue := &umEntry{env: e, bin: bin}
	m.unexpBins[bin].push(ue)
	m.unexpAll.push(ue)
	m.stats.Unexpected++
	return nil, false
}

// PostedDepth implements Matcher.
func (m *BinMatcher) PostedDepth() int { return m.postedN }

// UnexpectedDepth implements Matcher.
func (m *BinMatcher) UnexpectedDepth() int { return m.unexpAll.n }

// Stats implements Matcher.
func (m *BinMatcher) Stats() Stats { return m.stats }

// BinOccupancy reports, for the posted-receive table, the number of empty
// bins and the maximum chain length — the §V-A occupancy statistics.
func (m *BinMatcher) BinOccupancy() (empty, maxChain int) {
	for i := range m.posted {
		n := m.posted[i].n
		if n == 0 {
			empty++
		}
		if n > maxChain {
			maxChain = n
		}
	}
	return empty, maxChain
}

var _ Matcher = (*BinMatcher)(nil)

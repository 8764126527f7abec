package match

// ListMatcher is the traditional two-queue matching engine used by
// mainstream MPI implementations and by the paper as the on-CPU baseline
// (Fig. 8 "MPI-CPU"): a posted-receives queue (PRQ) and an unexpected-
// messages queue (UMQ), both plain linked lists scanned from the head.
// Appending at the tail and scanning from the head satisfies both MPI
// ordering constraints at the cost of O(n) searches.
//
// ListMatcher is not safe for concurrent use; drive it from one goroutine
// (which is exactly the serialization the paper sets out to remove).
type ListMatcher struct {
	prq       recvList
	umq       envList
	nextLabel uint64
	nextSeq   uint64
	stats     Stats
}

// NewListMatcher returns an empty traditional matcher.
func NewListMatcher() *ListMatcher {
	return &ListMatcher{}
}

// recvNode is a PRQ entry.
type recvNode struct {
	recv *Recv
	next *recvNode
}

// recvList is a singly linked queue with O(1) append. Unlinked nodes wait
// on free (threaded through next) for the next push: the matcher is
// single-goroutine, so the list is the lock.
type recvList struct {
	head, tail, free *recvNode
	n                int
}

func (l *recvList) push(r *Recv) {
	n := l.free
	if n == nil {
		n = &recvNode{}
	} else {
		l.free, n.next = n.next, nil
	}
	n.recv = r
	if l.tail == nil {
		l.head = n
	} else {
		l.tail.next = n
	}
	l.tail = n
	l.n++
}

// removeAfter unlinks the node following prev (or the head when prev is
// nil) and recycles it: the caller has read node.recv.
func (l *recvList) removeAfter(prev, node *recvNode) {
	if prev == nil {
		l.head = node.next
	} else {
		prev.next = node.next
	}
	if l.tail == node {
		l.tail = prev
	}
	l.n--
	node.recv, node.next, l.free = nil, l.free, node
}

// envNode is a UMQ entry.
type envNode struct {
	env  *Envelope
	next *envNode
}

// envList is a singly linked queue with O(1) append, recycling its nodes
// as recvList does.
type envList struct {
	head, tail, free *envNode
	n                int
}

func (l *envList) push(e *Envelope) {
	n := l.free
	if n == nil {
		n = &envNode{}
	} else {
		l.free, n.next = n.next, nil
	}
	n.env = e
	if l.tail == nil {
		l.head = n
	} else {
		l.tail.next = n
	}
	l.tail = n
	l.n++
}

func (l *envList) removeAfter(prev, node *envNode) {
	if prev == nil {
		l.head = node.next
	} else {
		prev.next = node.next
	}
	if l.tail == node {
		l.tail = prev
	}
	l.n--
	node.env, node.next, l.free = nil, l.free, node
}

// PostRecv implements Matcher. The UMQ is scanned from the head so the
// oldest matching unexpected message wins (C2).
func (m *ListMatcher) PostRecv(r *Recv) (*Envelope, bool) {
	r.Label = m.nextLabel
	m.nextLabel++

	var depth uint64
	var prev *envNode
	for n := m.umq.head; n != nil; prev, n = n, n.next {
		if env := n.env; r.Matches(env) {
			m.umq.removeAfter(prev, n)
			m.stats.recordPost(depth)
			m.stats.Matched++
			return env, true
		}
		depth++
	}
	m.stats.recordPost(depth)
	m.stats.Queued++
	m.prq.push(r)
	return nil, false
}

// Arrive implements Matcher. The PRQ is scanned from the head so the oldest
// matching posted receive wins (C1).
func (m *ListMatcher) Arrive(e *Envelope) (*Recv, bool) {
	if e.Seq == 0 {
		m.nextSeq++
		e.Seq = m.nextSeq
	}

	var depth uint64
	var prev *recvNode
	for n := m.prq.head; n != nil; prev, n = n, n.next {
		if r := n.recv; r.Matches(e) {
			m.prq.removeAfter(prev, n)
			m.stats.recordArrive(depth)
			m.stats.Matched++
			return r, true
		}
		depth++
	}
	m.stats.recordArrive(depth)
	m.stats.Unexpected++
	m.umq.push(e)
	return nil, false
}

// PeekUnexpected reports whether a stored unexpected message matches r
// without consuming it (the MPI_Probe primitive).
func (m *ListMatcher) PeekUnexpected(r *Recv) (*Envelope, bool) {
	for n := m.umq.head; n != nil; n = n.next {
		if r.Matches(n.env) {
			return n.env, true
		}
	}
	return nil, false
}

// PostedDepth implements Matcher.
func (m *ListMatcher) PostedDepth() int { return m.prq.n }

// UnexpectedDepth implements Matcher.
func (m *ListMatcher) UnexpectedDepth() int { return m.umq.n }

// Stats implements Matcher.
func (m *ListMatcher) Stats() Stats { return m.stats }

// ResetStats implements Matcher.
func (m *ListMatcher) ResetStats() { m.stats = Stats{} }

var _ Matcher = (*ListMatcher)(nil)

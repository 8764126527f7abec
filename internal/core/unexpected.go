package core

import (
	"sync"

	"repro/internal/match"
	"repro/internal/recycle"
)

// unexpectedStore keeps messages that arrived before a matching receive was
// posted. Mirroring §IV-C, each message is indexed in all four structures —
// a (source,tag)-keyed table, a tag-keyed table, a source-keyed table, and
// a global arrival-ordered list — so that a newly posted receive searches
// only the single index that corresponds to its wildcard class. All chains
// are kept sorted by arrival sequence so the oldest matching message is
// always found first (constraint C2).
//
// With blocks and posts running concurrently, s.mu doubles as the POST
// SERIALIZATION POINT: PostRecv performs its store search, label assignment,
// and descriptor publication under it, and a retiring block publishes its
// unexpected messages (after revalidating them against fresh posts) under it
// too. Either the post sees the message or the message's revalidation sees
// the post — a lost wakeup is impossible.
type unexpectedStore struct {
	mu   sync.Mutex
	bins int

	bySrcTag []uchain // key (source, tag, comm): searched by ClassNone receives
	byTag    []uchain // key (tag, comm): searched by ClassSrcWild receives
	bySrc    []uchain // key (source, comm): searched by ClassTagWild receives
	all      uchain   // arrival order: searched by ClassBothWild receives

	n int

	// free heads the recycled entries, threaded through links[0].next and
	// guarded by mu like everything else: insertLocked pops, removeAll
	// pushes. It never holds more than the store's high-water mark and
	// dies with the matcher.
	free *uentry
}

// structure indices into uentry.links.
const (
	linkSrcTag = iota
	linkTag
	linkSrc
	linkAll
	numLinks
)

// uentry is one stored unexpected message, threaded on all four structures.
type uentry struct {
	env   *match.Envelope
	links [numLinks]ulink
	chain [numLinks]*uchain
}

type ulink struct {
	next, prev *uentry
}

// uchain is a doubly linked, arrival-ordered chain for one structure slot.
type uchain struct {
	head, tail *uentry
	n          int
}

// insertSorted places e so that the chain stays ordered by Envelope.Seq.
// Blocks finalize unexpected messages concurrently and slightly out of
// order, but always within one block of each other, so the backward walk
// from the tail is short.
func (c *uchain) insertSorted(e *uentry, li int) {
	pos := c.tail
	for pos != nil && pos.env.Seq > e.env.Seq {
		pos = pos.links[li].prev
	}
	if pos == nil { // new head
		e.links[li].next = c.head
		if c.head != nil {
			c.head.links[li].prev = e
		} else {
			c.tail = e
		}
		c.head = e
	} else {
		e.links[li].prev = pos
		e.links[li].next = pos.links[li].next
		if pos.links[li].next != nil {
			pos.links[li].next.links[li].prev = e
		} else {
			c.tail = e
		}
		pos.links[li].next = e
	}
	c.n++
}

// remove unlinks e from the chain for structure li.
func (c *uchain) remove(e *uentry, li int) {
	l := e.links[li]
	if l.prev == nil {
		c.head = l.next
	} else {
		l.prev.links[li].next = l.next
	}
	if l.next == nil {
		c.tail = l.prev
	} else {
		l.next.links[li].prev = l.prev
	}
	e.links[li] = ulink{}
	c.n--
}

// chainArrays holds the chain arrays released matchers gave back (Release).
var chainArrays recycle.ByLen[uchain]

func newUnexpectedStore(bins int) *unexpectedStore {
	return &unexpectedStore{bins: bins}
}

// insertLocked stores e in all four structures. Caller holds s.mu. The
// binned chain arrays are allocated by the first insert: a matcher whose
// receives are always pre-posted never pays for them.
func (s *unexpectedStore) insertLocked(env *match.Envelope) {
	if s.bySrcTag == nil {
		s.bySrcTag = chainArrays.Get(s.bins)
		s.byTag = chainArrays.Get(s.bins)
		s.bySrc = chainArrays.Get(s.bins)
	}
	e := s.free
	if e == nil {
		e = &uentry{}
	} else {
		s.free, e.links[0].next = e.links[0].next, nil
	}
	e.env = env
	h := env.Inline // §IV-D: the sender's hashes, when the header carried them
	if h == nil {
		computed := match.ComputeInlineHashes(env)
		h = &computed
	}

	c := &s.bySrcTag[h.SrcTag%uint64(s.bins)]
	e.chain[linkSrcTag] = c
	c.insertSorted(e, linkSrcTag)

	c = &s.byTag[h.Tag%uint64(s.bins)]
	e.chain[linkTag] = c
	c.insertSorted(e, linkTag)

	c = &s.bySrc[h.Src%uint64(s.bins)]
	e.chain[linkSrc] = c
	c.insertSorted(e, linkSrc)

	e.chain[linkAll] = &s.all
	s.all.insertSorted(e, linkAll)

	s.n++
}

// chainFor returns the one chain a receive of class c with index hash
// (keyHashFor) searches, and that structure's link index. The store must be
// non-empty: the bin arrays exist only after the first insert.
func (s *unexpectedStore) chainFor(c match.WildcardClass, hash uint64) (*uchain, int) {
	bin := hash % uint64(s.bins)
	switch c {
	case match.ClassNone:
		return &s.bySrcTag[bin], linkSrcTag
	case match.ClassSrcWild:
		return &s.byTag[bin], linkTag
	case match.ClassTagWild:
		return &s.bySrc[bin], linkSrc
	default:
		return &s.all, linkAll
	}
}

// takeMatchLocked searches the single structure matching r's wildcard class
// c (hash is r's keyHashFor) for the oldest matching message; on a hit the
// message is unlinked from all four structures. It returns the envelope
// (nil for no match) and the number of entries examined. Caller holds s.mu.
func (s *unexpectedStore) takeMatchLocked(r *match.Recv, c match.WildcardClass, hash uint64) (*match.Envelope, uint64) {
	if s.n == 0 {
		return nil, 0
	}
	chain, li := s.chainFor(c, hash)
	var depth uint64
	for e := chain.head; e != nil; e = e.links[li].next {
		if env := e.env; r.Matches(env) {
			s.removeAll(e) // recycles e: env is read first
			return env, depth
		}
		depth++
	}
	return nil, depth
}

// removeAll unlinks e from every structure and recycles it: a free entry
// pins no envelope, no chain and no neighbour. Caller holds s.mu and has
// read e.env.
func (s *unexpectedStore) removeAll(e *uentry) {
	for li := 0; li < numLinks; li++ {
		e.chain[li].remove(e, li)
	}
	s.n--
	e.env, e.chain = nil, [numLinks]*uchain{} // remove cleared the links
	e.links[0].next = s.free
	s.free = e
}

// len returns the number of stored messages.
func (s *unexpectedStore) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

package match

// AdaptiveMatcher is the dynamic baseline of the paper's Table I (Bayatpour
// et al., "Adaptive and dynamic design for MPI tag matching", CLUSTER
// 2016): it starts on the traditional linked-list algorithm and, when the
// observed search depth over a sampling window exceeds a threshold,
// migrates all state into a binned matcher. MPI semantics are preserved
// across the migration: entries are re-posted/re-delivered in their
// original label and arrival order, so the pairing outcome is identical to
// having used either structure from the start.
//
// AdaptiveMatcher is not safe for concurrent use.
type AdaptiveMatcher struct {
	active Matcher

	bins      int
	window    uint64
	threshold float64
	migrated  bool

	// label/seq continuity across migration
	carry Stats

	// Snapshot of the cumulative counters at the previous policy check,
	// so each check evaluates the mean depth of the last window only.
	lastSearches  uint64
	lastTraversed uint64
}

// AdaptiveConfig tunes the migration policy.
type AdaptiveConfig struct {
	// Bins is the bin count adopted after migration (default 64).
	Bins int
	// Window is the number of searches between policy checks (default 64).
	Window uint64
	// Threshold is the mean search depth that triggers migration
	// (default 4.0).
	Threshold float64
}

// NewAdaptiveMatcher returns a matcher on the traditional algorithm, ready
// to migrate to bins when queues grow deep.
func NewAdaptiveMatcher(cfg AdaptiveConfig) *AdaptiveMatcher {
	if cfg.Bins <= 0 {
		cfg.Bins = 64
	}
	if cfg.Window == 0 {
		cfg.Window = 64
	}
	if cfg.Threshold == 0 {
		cfg.Threshold = 4.0
	}
	return &AdaptiveMatcher{
		active:    NewListMatcher(),
		bins:      cfg.Bins,
		window:    cfg.Window,
		threshold: cfg.Threshold,
	}
}

// maybeMigrate checks the policy after each operation. The decision uses
// the mean search depth over the last sampling window only — the delta of
// (traversed, searches) since the previous check — matching Bayatpour's
// design: the cumulative mean would dilute recent congestion with the
// entire shallow history, making migration ever less sensitive over time.
func (m *AdaptiveMatcher) maybeMigrate() {
	if m.migrated {
		return
	}
	st := m.active.Stats()
	searches := st.ArriveSearches + st.PostSearches
	if searches < m.lastSearches+m.window {
		return
	}
	traversed := st.ArriveTraversed + st.PostTraversed
	dSearches := searches - m.lastSearches
	dTraversed := traversed - m.lastTraversed
	m.lastSearches = searches
	m.lastTraversed = traversed
	if float64(dTraversed)/float64(dSearches) < m.threshold {
		return
	}
	m.migrate()
}

// migrate rebuilds the current state inside a binned matcher. The list
// matcher's internal order is recovered through its public behaviour:
// draining all posted receives (oldest first, via matching probes) and all
// unexpected messages (arrival order, via wildcard posts) would consume
// them, so instead the migration relies on the snapshot accessors below.
func (m *AdaptiveMatcher) migrate() {
	lm := m.active.(*ListMatcher)
	bm := NewBinMatcher(m.bins)

	// Replay posted receives in posting order, restoring each receive's
	// original label afterwards: chain order inside the new structure comes
	// from insertion order, while cross-structure C1 comparisons keep using
	// the original monotonic labels.
	for n := lm.prq.head; n != nil; n = n.next {
		label := n.recv.Label
		bm.PostRecv(n.recv)
		n.recv.Label = label
	}
	bm.nextLabel = lm.nextLabel // future posts continue the label sequence
	bm.nextSeq = lm.nextSeq     // and future arrivals the sequence numbers
	// Replay unexpected messages in arrival order, keeping their sequence
	// numbers (C2 depends on relative order only).
	for n := lm.umq.head; n != nil; n = n.next {
		bm.Arrive(n.env)
	}
	// Carry accumulated statistics so depth reporting stays cumulative; the
	// replay above is not new work, so bm starts counting from here.
	m.carry = m.carry.Add(lm.Stats())
	bm.stats = Stats{}
	m.active = bm
	m.migrated = true
}

// PostRecv implements Matcher.
func (m *AdaptiveMatcher) PostRecv(r *Recv) (*Envelope, bool) {
	env, ok := m.active.PostRecv(r)
	m.maybeMigrate()
	return env, ok
}

// Arrive implements Matcher.
func (m *AdaptiveMatcher) Arrive(e *Envelope) (*Recv, bool) {
	r, ok := m.active.Arrive(e)
	m.maybeMigrate()
	return r, ok
}

// PostedDepth implements Matcher.
func (m *AdaptiveMatcher) PostedDepth() int { return m.active.PostedDepth() }

// UnexpectedDepth implements Matcher.
func (m *AdaptiveMatcher) UnexpectedDepth() int { return m.active.UnexpectedDepth() }

// Stats implements Matcher, accumulating across migrations.
func (m *AdaptiveMatcher) Stats() Stats { return m.carry.Add(m.active.Stats()) }

var _ Matcher = (*AdaptiveMatcher)(nil)

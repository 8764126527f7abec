package match_test

import (
	"math/rand"
	"testing"

	"repro/internal/match"
	"repro/internal/match/matchtest"
)

// TestAllBaselinesMatchGoldenModel runs the golden-model equivalence over
// every Table I baseline implementation: rank-based (Dózsa), bin-based
// (Flajslik), and adaptive (Bayatpour). MPI matching is deterministic, so
// all of them must produce identical pairings.
func TestAllBaselinesMatchGoldenModel(t *testing.T) {
	engines := map[string]func() match.Matcher{
		"rank":     func() match.Matcher { return match.NewRankMatcher() },
		"bin-16":   func() match.Matcher { return match.NewBinMatcher(16) },
		"adaptive": func() match.Matcher { return match.NewAdaptiveMatcher(match.AdaptiveConfig{}) },
		"adaptive-trig": func() match.Matcher {
			return match.NewAdaptiveMatcher(match.AdaptiveConfig{Window: 8, Threshold: 0.5, Bins: 8})
		},
	}
	cfgs := []matchtest.Config{
		matchtest.DefaultConfig(),
		{Sources: 2, Tags: 2, Comms: 1, PSrcWild: 0.5, PTagWild: 0.5},
		{Sources: 16, Tags: 1, Comms: 1, Burstiness: 4}, // per-rank partitions shine
		{Sources: 1, Tags: 16, Comms: 1},                // per-rank partitions degenerate
		{Sources: 4, Tags: 4, Comms: 2, PPost: 0.3},     // arrival heavy: unexpected store
	}
	for name, mk := range engines {
		t.Run(name, func(t *testing.T) {
			for ci, cfg := range cfgs {
				rng := rand.New(rand.NewSource(int64(7*ci + 1)))
				for iter := 0; iter < 15; iter++ {
					ops := fillAndDrain(rng, 3, 400, cfg)
					gold, gp, gu := matchtest.Run(match.NewListMatcher(), ops)
					got, bp, bu := matchtest.Run(mk(), ops)
					if diff := matchtest.DiffPairings(gold, got); diff != "" {
						t.Fatalf("cfg %d iter %d: %s", ci, iter, diff)
					}
					if gp != bp || gu != bu {
						t.Fatalf("cfg %d iter %d: depths golden (%d,%d) engine (%d,%d)",
							ci, iter, gp, gu, bp, bu)
					}
				}
			}
		})
	}
}

func TestRankMatcherPartitionDepth(t *testing.T) {
	// Many senders, one tag: the rank partitions keep searches near zero
	// where the list walks everything.
	lm := match.NewListMatcher()
	rm := match.NewRankMatcher()
	const senders = 32
	for _, m := range []match.Matcher{lm, rm} {
		for s := 0; s < senders; s++ {
			m.PostRecv(&match.Recv{Source: match.Rank(s), Tag: 1})
		}
		for s := senders - 1; s >= 0; s-- {
			if _, ok := m.Arrive(&match.Envelope{Source: match.Rank(s), Tag: 1}); !ok {
				t.Fatal("miss")
			}
		}
	}
	if rm.Stats().ArriveTraversed >= lm.Stats().ArriveTraversed/4 {
		t.Fatalf("rank partitions did not help: rank %d vs list %d",
			rm.Stats().ArriveTraversed, lm.Stats().ArriveTraversed)
	}
	if rm.Stats().ArriveMaxDepth != 0 {
		t.Fatalf("distinct senders should never collide: max depth %d", rm.Stats().ArriveMaxDepth)
	}
}

func TestRankMatcherWildcardInterplay(t *testing.T) {
	m := match.NewRankMatcher()
	m.PostRecv(&match.Recv{Source: match.AnySource, Tag: 1}) // label 0
	m.PostRecv(&match.Recv{Source: 3, Tag: 1})               // label 1
	if r, ok := m.Arrive(&match.Envelope{Source: 3, Tag: 1}); !ok || r.Label != 0 {
		t.Fatalf("C1 across partition and wildcard list violated: %v", r)
	}
	if r, ok := m.Arrive(&match.Envelope{Source: 3, Tag: 1}); !ok || r.Label != 1 {
		t.Fatalf("partition entry lost: %v", r)
	}
	if m.PostedDepth() != 0 {
		t.Fatal("posted depth should be zero")
	}
}

func TestRankMatcherUnexpectedPerSender(t *testing.T) {
	m := match.NewRankMatcher()
	m.Arrive(&match.Envelope{Source: 1, Tag: 5, Seq: 1})
	m.Arrive(&match.Envelope{Source: 2, Tag: 5, Seq: 2})
	if m.UnexpectedDepth() != 2 {
		t.Fatalf("unexpected depth = %d", m.UnexpectedDepth())
	}
	// A specific receive takes only its sender's message…
	if env, ok := m.PostRecv(&match.Recv{Source: 2, Tag: 5}); !ok || env.Seq != 2 {
		t.Fatal("per-sender unexpected lookup failed")
	}
	// …and an AnySource receive sees global arrival order.
	if env, ok := m.PostRecv(&match.Recv{Source: match.AnySource, Tag: 5}); !ok || env.Seq != 1 {
		t.Fatal("wildcard unexpected lookup failed")
	}
	m.ResetStats()
	if m.Stats().Matched != 0 {
		t.Fatal("reset failed")
	}
}

func TestAdaptiveMigrationTrigger(t *testing.T) {
	m := match.NewAdaptiveMatcher(match.AdaptiveConfig{Window: 16, Threshold: 2, Bins: 32})
	if m.Migrated() {
		t.Fatal("fresh matcher already migrated")
	}
	// Deep single-bin misery: many distinct keys searched in reverse.
	const n = 64
	for i := 0; i < n; i++ {
		m.PostRecv(&match.Recv{Source: match.Rank(i % 8), Tag: match.Tag(i)})
	}
	for i := n - 1; i >= 0; i-- {
		if _, ok := m.Arrive(&match.Envelope{Source: match.Rank(i % 8), Tag: match.Tag(i)}); !ok {
			t.Fatal("miss")
		}
	}
	if !m.Migrated() {
		t.Fatalf("deep queues did not trigger migration: %+v", m.Stats())
	}
	// Post-migration behaviour stays correct.
	m.PostRecv(&match.Recv{Source: 1, Tag: 999})
	if _, ok := m.Arrive(&match.Envelope{Source: 1, Tag: 999}); !ok {
		t.Fatal("post-migration match failed")
	}
}

// TestAdaptiveWindowedMeanNotDiluted pins the windowed migration policy:
// a long shallow phase must not desensitize the trigger. Under the old
// cumulative-mean policy the shallow history dilutes the recent deep
// window below the threshold and migration never fires.
func TestAdaptiveWindowedMeanNotDiluted(t *testing.T) {
	m := match.NewAdaptiveMatcher(match.AdaptiveConfig{Window: 16, Threshold: 2, Bins: 32})
	// Phase 1: thousands of depth-0/1 searches.
	for i := 0; i < 4096; i++ {
		m.PostRecv(&match.Recv{Source: 1, Tag: 1})
		m.Arrive(&match.Envelope{Source: 1, Tag: 1})
	}
	if m.Migrated() {
		t.Fatal("shallow phase triggered migration")
	}
	// Phase 2: one window of deep searches. Windowed mean is ~32; the
	// cumulative mean stays ~0.5, far below the threshold.
	const deep = 64
	for i := 0; i < deep; i++ {
		m.PostRecv(&match.Recv{Source: match.Rank(i % 8), Tag: match.Tag(100 + i)})
	}
	for i := deep - 1; i >= 0; i-- {
		m.Arrive(&match.Envelope{Source: match.Rank(i % 8), Tag: match.Tag(100 + i)})
	}
	if !m.Migrated() {
		t.Fatalf("deep window diluted by shallow history: %+v", m.Stats())
	}
}

func TestAdaptiveStaysOnListWhenShallow(t *testing.T) {
	m := match.NewAdaptiveMatcher(match.AdaptiveConfig{Window: 8, Threshold: 4})
	// Perfectly shallow traffic: always match at the head.
	for i := 0; i < 200; i++ {
		m.PostRecv(&match.Recv{Source: 1, Tag: 1})
		m.Arrive(&match.Envelope{Source: 1, Tag: 1})
	}
	if m.Migrated() {
		t.Fatal("shallow traffic triggered migration")
	}
}

func TestAdaptiveMigrationPreservesState(t *testing.T) {
	m := match.NewAdaptiveMatcher(match.AdaptiveConfig{Window: 4, Threshold: 1, Bins: 16})
	// Leave state in both queues, then force deep searches to migrate.
	m.PostRecv(&match.Recv{Source: 7, Tag: 70}) // stays posted
	m.Arrive(&match.Envelope{Source: 8, Tag: 80, Seq: 900})
	for i := 0; i < 32; i++ {
		m.PostRecv(&match.Recv{Source: 1, Tag: match.Tag(i)})
	}
	for i := 31; i >= 0; i-- {
		m.Arrive(&match.Envelope{Source: 1, Tag: match.Tag(i)})
	}
	if !m.Migrated() {
		t.Fatal("migration did not trigger")
	}
	// Pre-migration state must have survived the move.
	if r, ok := m.Arrive(&match.Envelope{Source: 7, Tag: 70}); !ok || r.Source != 7 {
		t.Fatal("posted receive lost in migration")
	}
	if env, ok := m.PostRecv(&match.Recv{Source: 8, Tag: 80}); !ok || env.Seq != 900 {
		t.Fatal("unexpected message lost in migration")
	}
	if m.PostedDepth() != 0 || m.UnexpectedDepth() != 0 {
		t.Fatalf("leftover state: posted=%d unexpected=%d", m.PostedDepth(), m.UnexpectedDepth())
	}
}

func TestAdaptiveStatsAccumulateAcrossMigration(t *testing.T) {
	m := match.NewAdaptiveMatcher(match.AdaptiveConfig{Window: 4, Threshold: 1, Bins: 8})
	for i := 0; i < 16; i++ {
		m.PostRecv(&match.Recv{Source: 1, Tag: match.Tag(i)})
	}
	for i := 15; i >= 0; i-- {
		m.Arrive(&match.Envelope{Source: 1, Tag: match.Tag(i)})
	}
	st := m.Stats()
	if st.Matched != 16 {
		t.Fatalf("matched = %d across migration, want 16", st.Matched)
	}
	if st.ArriveSearches != 16 {
		t.Fatalf("searches = %d, want 16 (replay must not double count)", st.ArriveSearches)
	}
}

func TestAdaptiveResetStats(t *testing.T) {
	m := match.NewAdaptiveMatcher(match.AdaptiveConfig{})
	m.PostRecv(&match.Recv{Source: 1, Tag: 1})
	m.Arrive(&match.Envelope{Source: 1, Tag: 1})
	if m.Stats().Matched != 1 {
		t.Fatal("no match recorded")
	}
	m.ResetStats()
	if m.Stats().Matched != 0 {
		t.Fatal("reset failed")
	}
}

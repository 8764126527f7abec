package core

import (
	"fmt"

	"repro/internal/match"
	"repro/internal/obs"
)

// MustNew is New for configurations known to be valid; it panics on error.
func MustNew(cfg Config) *OptimisticMatcher {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// ResetDepthStats zeroes the search-depth statistics.
func (m *OptimisticMatcher) ResetDepthStats() {
	o := m.Obs()
	o.Fold()
	o.Counters.Reset(
		obs.CtrPostSearches, obs.CtrPostTraversed, obs.CtrPostMaxDepth,
		obs.CtrArriveSearches, obs.CtrArriveTraversed, obs.CtrArriveMaxDepth,
		obs.CtrMatched, obs.CtrUnexpectedStored, obs.CtrQueued,
	)
}

// ResetStats zeroes the engine statistics.
func (m *OptimisticMatcher) ResetStats() {
	o := m.Obs()
	o.Fold()
	o.Counters.Reset(
		obs.CtrBlocks, obs.CtrMessages, obs.CtrOptimistic,
		obs.CtrConflicts, obs.CtrFastPath, obs.CtrSlowPath,
		obs.CtrUnexpected, obs.CtrRelaxed, obs.CtrTableFull,
		obs.CtrLazySweeps, obs.CtrLazyReaped, obs.CtrRevalidated,
		obs.CtrSteals, obs.CtrRetires,
	)
}

// Sequential adapts an OptimisticMatcher to the match.Matcher interface,
// processing every arrival as a one-message block. It is what the
// golden-model property tests compare against the baselines. The adapter panics on ErrTableFull —
// callers that can overflow the descriptor table must size it accordingly
// or use PostRecv directly and implement the software fallback.
type Sequential struct {
	m *OptimisticMatcher
}

// Sequential returns the match.Matcher view of the engine.
func (m *OptimisticMatcher) Sequential() *Sequential {
	return &Sequential{m: m}
}

// PostRecv implements match.Matcher.
func (s *Sequential) PostRecv(r *match.Recv) (*match.Envelope, bool) {
	env, ok, err := s.m.PostRecv(r)
	if err != nil {
		panic(fmt.Sprintf("core: Sequential adapter: %v", err))
	}
	return env, ok
}

// Arrive implements match.Matcher.
func (s *Sequential) Arrive(e *match.Envelope) (*match.Recv, bool) {
	res := s.m.Arrive(e)
	if res.Unexpected {
		return nil, false
	}
	return res.Recv, true
}

// PostedDepth implements match.Matcher.
func (s *Sequential) PostedDepth() int { return s.m.PostedDepth() }

// UnexpectedDepth implements match.Matcher.
func (s *Sequential) UnexpectedDepth() int { return s.m.UnexpectedDepth() }

// Stats implements match.Matcher.
func (s *Sequential) Stats() match.Stats { return s.m.DepthStats() }

var _ match.Matcher = (*Sequential)(nil)

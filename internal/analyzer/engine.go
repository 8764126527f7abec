package analyzer

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/match"
)

// instance is one rank's matching-engine state during a replay, abstracting
// over the optimistic engine and the Table I baselines.
type instance interface {
	// post presents a receive (may complete against the unexpected store).
	post(r *match.Recv) error
	// arrive presents an incoming message.
	arrive(e *match.Envelope)
	// posted returns the live posted-receive count.
	posted() int
	// occupancy samples empty/total bins; ok is false when the engine has
	// no bin structure to sample.
	occupancy() (empty, total int, ok bool)
	// depth returns cumulative search statistics.
	depth() match.Stats
	// unexpectedTotal returns the cumulative unexpected-message count.
	unexpectedTotal() uint64
	// release hands the engine's tables to the next instance; nothing may
	// use this one afterwards.
	release()
}

// validEngine reports whether e names a known matching strategy, so sweep
// paths can reject a bad selection up front instead of failing once per
// shard mid-replay.
func validEngine(e Engine) error {
	switch e {
	case "", EngineOptimistic, EngineList, EngineBin, EngineRank, EngineAdaptive:
		return nil
	}
	return fmt.Errorf("analyzer: unknown engine %q", e)
}

// newInstance builds the engine selected by cfg.
func newInstance(cfg Config) (instance, error) {
	switch cfg.Engine {
	case "", EngineOptimistic:
		m, err := core.New(core.Config{
			Bins:              cfg.Bins,
			MaxReceives:       cfg.MaxReceives,
			BlockSize:         1,
			EarlyBookingCheck: true,
		})
		if err != nil {
			return nil, err
		}
		return &optimisticInstance{m: m}, nil
	case EngineList:
		return &genericInstance{m: match.NewListMatcher()}, nil
	case EngineBin:
		return &genericInstance{m: match.NewBinMatcher(cfg.Bins)}, nil
	case EngineRank:
		return &genericInstance{m: match.NewRankMatcher()}, nil
	case EngineAdaptive:
		// A short policy window so migration can trigger within one rank's
		// share of a trace.
		return &genericInstance{m: match.NewAdaptiveMatcher(match.AdaptiveConfig{Bins: cfg.Bins, Window: 16})}, nil
	default:
		return nil, fmt.Errorf("analyzer: unknown engine %q", cfg.Engine)
	}
}

// optimisticInstance wraps the paper's engine.
type optimisticInstance struct {
	m *core.OptimisticMatcher
}

func (o *optimisticInstance) post(r *match.Recv) error {
	_, _, err := o.m.PostRecv(r)
	return err
}

func (o *optimisticInstance) arrive(e *match.Envelope) { o.m.Arrive(e) }

func (o *optimisticInstance) posted() int { return o.m.PostedDepth() }

func (o *optimisticInstance) occupancy() (int, int, bool) {
	empty, total, _ := o.m.Occupancy()
	return empty, total, true
}

func (o *optimisticInstance) depth() match.Stats { return o.m.DepthStats() }

func (o *optimisticInstance) unexpectedTotal() uint64 { return o.m.Stats().Unexpected }

func (o *optimisticInstance) release() { o.m.Release() }

// genericInstance wraps any match.Matcher baseline.
type genericInstance struct {
	m match.Matcher
}

func (g *genericInstance) post(r *match.Recv) error {
	g.m.PostRecv(r)
	return nil
}

func (g *genericInstance) arrive(e *match.Envelope) { g.m.Arrive(e) }

func (g *genericInstance) posted() int { return g.m.PostedDepth() }

func (g *genericInstance) occupancy() (int, int, bool) {
	if bm, ok := g.m.(*match.BinMatcher); ok {
		empty, _ := bm.BinOccupancy()
		return empty, bm.Bins(), true
	}
	return 0, 0, false
}

func (g *genericInstance) depth() match.Stats { return g.m.Stats() }

func (g *genericInstance) unexpectedTotal() uint64 { return g.m.Stats().Unexpected }

func (g *genericInstance) release() {}

package core_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/match"
	"repro/internal/match/matchtest"
)

// runSchedule drives a scenario through the engine on ONE goroutine. Pending
// arrivals are cut into blocks as runPipelined cuts them, up to depth blocks
// begin together, and then the window's Book and Resolve calls run in an
// order drawn from rng among the legal ones: any Book not yet made, or a
// block's next Resolve in thread order once the bookings it waits for are in
// (every one of the block's with SimultaneousArrival). Book never waits and
// such a Resolve never waits, so the draw is the interleaving.
func runSchedule(t *testing.T, m *core.OptimisticMatcher, ops []matchtest.Op, blockN, depth int, rng *rand.Rand) (pairings []match.Pairing, posted, unexpected int) {
	t.Helper()
	simultaneous := m.Config().SimultaneousArrival

	type window struct {
		blk      *core.Block
		envs     []*match.Envelope
		booked   []bool
		nbooked  int
		resolved int
	}
	type call struct{ w, tid int }

	return drive(t, m, ops, blockN*depth, func(pending []*match.Envelope) []core.Result {
		var ws []*window
		var books []call
		for rest := pending; len(rest) > 0; {
			n := min(len(rest), blockN)
			for tid := 0; tid < n; tid++ {
				books = append(books, call{len(ws), tid})
			}
			ws = append(ws, &window{blk: m.BeginBlock(n), envs: rest[:n], booked: make([]bool, n)})
			rest = rest[n:]
		}
		rng.Shuffle(len(books), func(i, j int) { books[i], books[j] = books[j], books[i] })

		resolvable := func(w *window) bool {
			if w.resolved == len(w.envs) {
				return false
			}
			if simultaneous {
				return w.nbooked == len(w.envs)
			}
			for tid := 0; tid <= w.resolved; tid++ {
				if !w.booked[tid] {
					return false
				}
			}
			return true
		}
		for {
			var ready []*window
			for _, w := range ws {
				if resolvable(w) {
					ready = append(ready, w)
				}
			}
			choices := len(ready)
			if len(books) > 0 {
				choices++
			}
			if choices == 0 {
				break
			}
			if pick := rng.Intn(choices); pick < len(ready) {
				w := ready[pick]
				w.blk.Resolve(w.resolved)
				w.resolved++
				continue
			}
			c := books[len(books)-1]
			books = books[:len(books)-1]
			w := ws[c.w]
			w.blk.Book(c.tid, w.envs[c.tid])
			w.booked[c.tid] = true
			w.nbooked++
		}
		out := make([]core.Result, len(pending))
		rest := out
		for _, w := range ws {
			w.blk.FinishInto(rest[:len(w.envs)])
			rest = rest[len(w.envs):]
		}
		return out
	})
}

// TestBookResolveSeededSchedules replays seeded interleavings of a block's
// Book and Resolve calls on one goroutine (ROADMAP item 2, the intra-block
// half) and holds each to the list matcher's pairing, to counter
// conservation, and to the counters of the same input matched by concurrent
// Match calls. Every failure names its seed.
func TestBookResolveSeededSchedules(t *testing.T) {
	// The Figure 8 matcher settings. Under WC-FP and WC-SP every Book is
	// independent of every other (no early booking check) and precedes every
	// Resolve (full barrier), so at depth 1 all counters are the same on
	// every schedule; under NC whether two same-key threads conflict depends
	// on which booked first.
	configs := []struct {
		name          string
		mutate        func(*core.Config)
		deterministic bool
	}{
		{"NC", nil, false},
		{"WC-FP", func(c *core.Config) { c.EarlyBookingCheck, c.SimultaneousArrival = false, true }, true},
		{"WC-SP", func(c *core.Config) {
			c.EarlyBookingCheck, c.SimultaneousArrival, c.DisableFastPath = false, true, true
		}, true},
	}
	// Both scenarios post receives of all four wildcard classes. Relaxed
	// claims retry against each other when they race, which makes traversal
	// counts schedule-dependent, and may pair in any order when concurrent.
	scenarios := []struct {
		name  string
		gen   matchtest.Config
		hints map[match.CommID]core.Hints
	}{
		{"wildcards", matchtest.Config{Sources: 2, Tags: 2, Comms: 2, PSrcWild: 0.3, PTagWild: 0.3, Burstiness: 4}, nil},
		{"hints", matchtest.Config{Sources: 2, Tags: 2, Comms: 3, PSrcWild: 0.3, PTagWild: 0.3, Burstiness: 4},
			map[match.CommID]core.Hints{1: {AllowOvertaking: true}, 2: {NoAnySource: true}}},
	}
	const blockN, seeds = 8, 12

	t.Run("own-booking", resolveBeforeOwnBook)
	for _, cfg := range configs {
		for _, depth := range []int{1, 4} {
			for _, sc := range scenarios {
				t.Run(fmt.Sprintf("%s/K=%d/%s", cfg.name, depth, sc.name), func(t *testing.T) {
					for seed := int64(1); seed <= seeds; seed++ {
						rng := rand.New(rand.NewSource(seed))
						ops := matchtest.Generate(rng, 300, sc.gen)
						for i := range ops { // a conforming program: no AnySource where it is asserted away
							if ops[i].Post && ops[i].Src == match.AnySource && sc.hints[ops[i].Comm].NoAnySource {
								ops[i].Src = 0
							}
						}
						newMatcher := func() *core.OptimisticMatcher {
							m := core.MustNew(engineConfig(16, blockN, func(c *core.Config) {
								c.InFlightBlocks = depth
								if cfg.mutate != nil {
									cfg.mutate(c)
								}
							}))
							for comm, h := range sc.hints {
								m.SetCommHints(comm, h)
							}
							return m
						}

						gold, gp, gu := matchtest.Run(match.NewListMatcher(), ops)
						sched := newMatcher()
						got, pp, pu := runSchedule(t, sched, ops, blockN, depth, rng)
						// Resolve runs in thread order, so even relaxed
						// messages pair as the list matcher pairs them.
						if diff := matchtest.DiffPairings(gold, got); diff != "" {
							t.Fatalf("seed %d: %s", seed, diff)
						}
						if gp != pp || gu != pu {
							t.Fatalf("seed %d: depths golden (%d,%d) engine (%d,%d)", seed, gp, gu, pp, pu)
						}

						conc := newMatcher()
						if depth == 1 {
							runBlocks(t, conc, ops, blockN)
						} else {
							runPipelined(t, conc, ops, blockN, depth)
						}
						all := cfg.deterministic && depth == 1 && sc.hints == nil
						for name, m := range map[string]*core.OptimisticMatcher{"schedule": sched, "concurrent": conc} {
							if err := m.Stats().CheckQuiesced(m.DepthStats(), false); err != nil {
								t.Fatalf("seed %d, %s: %v", seed, name, err)
							}
						}
						ss, sd := scheduleFree(sched, all)
						cs, cd := scheduleFree(conc, all)
						if ss != cs {
							t.Fatalf("seed %d EngineStats (all=%v):\nschedule   %+v\nconcurrent %+v", seed, all, ss, cs)
						}
						if sd != cd {
							t.Fatalf("seed %d DepthStats (all=%v):\nschedule   %+v\nconcurrent %+v", seed, all, sd, cd)
						}
					}
				})
			}
		}
	}
}

// scheduleFree returns m's counters, with those that depend on the
// interleaving (which thread conflicted, who stole from whom, how far a
// retried search walked) zeroed unless all is set.
func scheduleFree(m *core.OptimisticMatcher, all bool) (core.EngineStats, match.Stats) {
	s, d := m.Stats(), m.DepthStats()
	if !all {
		s.Optimistic, s.Conflicts, s.FastPath, s.SlowPath, s.Revalidated, s.Steals = 0, 0, 0, 0, 0, 0
		d.ArriveTraversed, d.ArriveMaxDepth = 0, 0
	}
	return s, d
}

// resolveBeforeOwnBook is the interleaving one goroutine cannot draw:
// Resolve(tid) on a second goroutine before Book(tid) has published the
// envelope and candidate it needs. A Resolve that waited only for the
// threads below it would read an empty stash (for thread 0, after no wait at
// all) and carry a nil envelope into retirement.
func resolveBeforeOwnBook(t *testing.T) {
	for _, simultaneous := range []bool{false, true} {
		m := core.MustNew(engineConfig(16, 2, func(c *core.Config) { c.SimultaneousArrival = simultaneous }))
		recvs := []*match.Recv{{Source: 1, Tag: 1}, {Source: 1, Tag: 2}}
		for _, r := range recvs {
			if _, _, err := m.PostRecv(r); err != nil {
				t.Fatal(err)
			}
		}
		b := m.BeginBlock(2)
		type verdict struct {
			tid   int
			res   core.Result
			final bool
		}
		resolved := make(chan verdict, 2)
		for tid := 0; tid < 2; tid++ {
			go func() {
				res, final := b.Resolve(tid)
				resolved <- verdict{tid, res, final}
			}()
		}
		for i := 0; i < 100; i++ {
			runtime.Gosched() // let both resolvers reach their wait
		}
		select {
		case v := <-resolved:
			t.Fatalf("simultaneous=%v: Resolve(%d) returned %+v before any Book", simultaneous, v.tid, v.res)
		default:
		}
		envs := []*match.Envelope{{Source: 1, Tag: 1}, {Source: 1, Tag: 2}}
		b.Book(1, envs[1])
		b.Book(0, envs[0])
		for range envs {
			v := <-resolved
			if !v.final || v.res.Env != envs[v.tid] || v.res.Recv != recvs[v.tid] {
				t.Fatalf("simultaneous=%v: Resolve(%d) = %+v final=%v, want envelope %d on receive %d",
					simultaneous, v.tid, v.res, v.final, v.tid, v.tid)
			}
		}
		b.Finish()
		if err := m.Stats().CheckQuiesced(m.DepthStats(), true); err != nil {
			t.Fatal(err)
		}
	}
}

package match_test

import (
	"math/rand"
	"testing"

	"repro/internal/match"
	"repro/internal/match/matchtest"
)

// fillAndDrain returns rounds generated scenarios of n operations back to
// back, each followed by the operations that empty both queues again: a
// message naming every receive still posted (C1 makes it take exactly that
// one), then a both-wildcard receive for every message still stored. A
// matcher that recycles its queue nodes, as the golden model does, runs
// every round but the first on recycled ones.
func fillAndDrain(rng *rand.Rand, rounds, n int, cfg matchtest.Config) []matchtest.Op {
	var all []matchtest.Op
	m := match.NewListMatcher()
	for round := 0; round < rounds; round++ {
		ops := matchtest.Generate(rng, n, cfg)
		var posted []*match.Recv
		var stored []*match.Envelope
		taken := make(map[any]bool)
		for _, op := range ops {
			if op.Post {
				r := &match.Recv{Source: op.Src, Tag: op.Tag, Comm: op.Comm}
				if env, ok := m.PostRecv(r); ok {
					taken[env] = true
				} else {
					posted = append(posted, r)
				}
			} else {
				e := &match.Envelope{Source: op.Src, Tag: op.Tag, Comm: op.Comm}
				if r, ok := m.Arrive(e); ok {
					taken[r] = true
				} else {
					stored = append(stored, e)
				}
			}
		}
		for _, r := range posted {
			if !taken[r] {
				ops = append(ops, matchtest.Op{Src: max(r.Source, 0), Tag: max(r.Tag, 0), Comm: r.Comm})
			}
		}
		for _, e := range stored {
			if !taken[e] {
				ops = append(ops, matchtest.Op{Post: true, Src: match.AnySource, Tag: match.AnyTag, Comm: e.Comm})
			}
		}
		if _, p, u := matchtest.Run(m, ops[n:]); p != 0 || u != 0 {
			panic("fillAndDrain: the drain left the queues non-empty")
		}
		all = append(all, ops...)
	}
	return all
}

// TestBinMatchesGoldenModel drives random scenarios through the traditional
// list matcher (the golden model) and the binned matcher at several bin
// counts, requiring identical message→receive pairings. MPI matching is
// deterministic under C1+C2, so any divergence is a bug.
func TestBinMatchesGoldenModel(t *testing.T) {
	cfgs := []matchtest.Config{
		matchtest.DefaultConfig(),
		{Sources: 2, Tags: 2, Comms: 1, PSrcWild: 0.5, PTagWild: 0.5},             // wildcard heavy
		{Sources: 32, Tags: 64, Comms: 1},                                         // wide key space
		{Sources: 4, Tags: 1, Comms: 1, Burstiness: 6},                            // bursty same-key
		{Sources: 1, Tags: 1, Comms: 1, PSrcWild: 0.3, PTagWild: 0.3},             // single key, max conflicts
		{Sources: 8, Tags: 8, Comms: 3, PSrcWild: 0.1, PTagWild: 0.1, PPost: 0.8}, // post heavy
		{Sources: 8, Tags: 8, Comms: 3, PPost: 0.2},                               // arrival heavy
	}
	for ci, cfg := range cfgs {
		for _, bins := range []int{1, 2, 7, 32, 128} {
			rng := rand.New(rand.NewSource(int64(1000*ci + bins)))
			for iter := 0; iter < 20; iter++ {
				ops := fillAndDrain(rng, 3, 400, cfg)
				gold, gp, gu := matchtest.Run(match.NewListMatcher(), ops)
				got, bp, bu := matchtest.Run(match.NewBinMatcher(bins), ops)
				if diff := matchtest.DiffPairings(gold, got); diff != "" {
					t.Fatalf("cfg %d bins %d iter %d: %s", ci, bins, iter, diff)
				}
				if gp != bp || gu != bu {
					t.Fatalf("cfg %d bins %d iter %d: depths golden (%d,%d) engine (%d,%d)",
						ci, bins, iter, gp, gu, bp, bu)
				}
			}
		}
	}
}

// TestGoldenModelConservation checks the bookkeeping identity:
// matches*2 + queued-posted + stored-unexpected == total ops.
func TestGoldenModelConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ops := matchtest.Generate(rng, 1000, matchtest.DefaultConfig())
	m := match.NewListMatcher()
	pairings, posted, unexpected := matchtest.Run(m, ops)
	if 2*len(pairings)+posted+unexpected != len(ops) {
		t.Fatalf("conservation violated: 2*%d + %d + %d != %d",
			len(pairings), posted, unexpected, len(ops))
	}
	st := m.Stats()
	if st.Matched != uint64(len(pairings)) {
		t.Fatalf("stats.Matched %d != pairings %d", st.Matched, len(pairings))
	}
	// Queued counts receives that entered the PRQ; entries later consumed by
	// arrivals are not decremented, so Queued can only exceed the residue.
	if st.Queued < uint64(posted) {
		t.Fatalf("stats.Queued %d < residual posted %d", st.Queued, posted)
	}
	if st.Unexpected < uint64(unexpected) {
		t.Fatalf("stats.Unexpected %d < residual unexpected %d", st.Unexpected, unexpected)
	}
}

func TestDiffPairingsReportsDivergence(t *testing.T) {
	a := []match.Pairing{{MsgSeq: 1, RecvLabel: 0}}
	b := []match.Pairing{{MsgSeq: 1, RecvLabel: 2}}
	if matchtest.DiffPairings(a, b) == "" {
		t.Fatal("divergent pairings reported as equal")
	}
	if matchtest.DiffPairings(a, a) != "" {
		t.Fatal("identical pairings reported as different")
	}
	if matchtest.DiffPairings(a, nil) == "" {
		t.Fatal("count mismatch not reported")
	}
	c := []match.Pairing{{MsgSeq: 9, RecvLabel: 0}}
	if matchtest.DiffPairings(a, c) == "" {
		t.Fatal("unknown message not reported")
	}
}

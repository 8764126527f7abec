package core

import (
	"maps"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"

	"repro/internal/match"
	"repro/internal/match/matchtest"
	"repro/internal/obs"
)

// firstUseArrays returns the addresses of the arrays m made on first use:
// its bucket tables, its unexpected-store chain tables and its descriptor
// chunks.
func firstUseArrays(m *OptimisticMatcher) map[unsafe.Pointer]bool {
	out := map[unsafe.Pointer]bool{}
	for _, ix := range []*recvIndex{m.idxFull, m.idxSrcWild, m.idxTagWild, m.idxBoth} {
		if ix.used.Load() {
			out[unsafe.Pointer(&ix.buckets[0])] = true
		}
	}
	s := m.unexpected
	for _, c := range [][]uchain{s.bySrcTag, s.byTag, s.bySrc} {
		if c != nil {
			out[unsafe.Pointer(&c[0])] = true
		}
	}
	for i := range m.table.chunks {
		if c := m.table.chunks[i].Load(); c != nil {
			out[unsafe.Pointer(c)] = true
		}
	}
	return out
}

// TestRecycledMatcherMatchesFresh runs one seeded workload on a fresh
// matcher, releases it, and runs the workload again on a second matcher of
// the same Config, which draws the first one's arrays. Both must pair as
// the list matcher does and count the same; the released matcher must still
// report its statistics, and its tables as empty.
func TestRecycledMatcherMatchesFresh(t *testing.T) {
	// One P and no collection between the release and the second run: a
	// pool hands an array back only to a Get on the P that put it, and only
	// until the second GC.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	cfg := Config{Bins: 32, MaxReceives: 4096, BlockSize: 1, EarlyBookingCheck: true}
	ops := matchtest.Generate(rand.New(rand.NewSource(36)), 3000, matchtest.Config{
		Sources: 4, Tags: 8, Comms: 2, PSrcWild: 0.2, PTagWild: 0.2, PPost: 0.6, Burstiness: 4})
	gold, goldPosted, goldUnexp := matchtest.Run(match.NewListMatcher(), ops)

	run := func(name string) (*OptimisticMatcher, map[unsafe.Pointer]bool) {
		m := MustNew(cfg)
		got, posted, unexp := matchtest.Run(m.Sequential(), ops)
		if diff := matchtest.DiffPairings(gold, got); diff != "" {
			t.Fatalf("%s matcher: %s", name, diff)
		}
		if posted != goldPosted || unexp != goldUnexp {
			t.Fatalf("%s matcher: depths (%d,%d), list matcher (%d,%d)", name, posted, unexp, goldPosted, goldUnexp)
		}
		if err := m.Stats().CheckQuiesced(m.DepthStats(), true); err != nil {
			t.Fatalf("%s matcher: %v", name, err)
		}
		return m, firstUseArrays(m)
	}

	fresh, freshArrays := run("fresh")
	// Every kind of first-use array must have been made, several chunks.
	if len(freshArrays) < 4+3+2 {
		t.Fatalf("the workload made only %d first-use arrays", len(freshArrays))
	}
	stats, depth := fresh.Stats(), fresh.DepthStats()
	fresh.Release()
	if fresh.Stats() != stats || fresh.DepthStats() != depth {
		t.Fatalf("statistics changed across Release: %+v %+v, then %+v %+v", stats, depth, fresh.Stats(), fresh.DepthStats())
	}
	if empty, total, maxChain := fresh.Occupancy(); empty != total || maxChain != 0 {
		t.Fatalf("released matcher's Occupancy = (%d, %d, %d), want all bins empty", empty, total, maxChain)
	}

	recycled, recycledArrays := run("recycled")
	if recycled.Stats() != stats || recycled.DepthStats() != depth {
		t.Fatalf("recycled matcher counts %+v %+v, fresh one %+v %+v", recycled.Stats(), recycled.DepthStats(), stats, depth)
	}
	if !raceEnabled && !maps.Equal(freshArrays, recycledArrays) {
		t.Fatalf("the recycled matcher's %d first-use arrays are not the %d released ones", len(recycledArrays), len(freshArrays))
	}
}

// TestBlockNsSampledWithTracingOff pins HistBlockNs on an untraced matcher:
// one block in blockNsSample is timed, the one whose sequence it divides,
// on the Arrive path and the BeginBlock path alike.
func TestBlockNsSampledWithTracingOff(t *testing.T) {
	m := MustNew(Config{Bins: 16, MaxReceives: 64, BlockSize: 4, EarlyBookingCheck: true})
	sink := obs.New(obs.Options{})
	m.SetObs(sink)
	for i := 0; i < 300; i++ {
		envs := []*match.Envelope{{Source: 1, Tag: match.Tag(i)}, {Source: 1, Tag: match.Tag(i)}}
		for range envs {
			if _, _, err := m.PostRecv(&match.Recv{Source: 1, Tag: match.Tag(i)}); err != nil {
				t.Fatal(err)
			}
		}
		if i%2 == 0 {
			m.ArriveBlock(envs)
		} else {
			m.Arrive(envs[0])
			m.Arrive(envs[1])
		}
	}
	blocks := m.Stats().Blocks
	if got, want := sink.Hist(obs.HistBlockNs).Count, blocks/blockNsSample; got != want || want == 0 {
		t.Fatalf("HistBlockNs counted %d of %d blocks, want %d", got, blocks, want)
	}
}

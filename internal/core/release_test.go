package core

import (
	"maps"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"
	"weak"

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
// matcher, releases it, and runs the workload again on what the next New
// of the same shape returns: the released matcher, whole, struct and every
// table it made. Both must pair as the list matcher does and count the
// same. The first is used as a world uses its matcher (a sink, an
// unexpected hook, communicator hints, K = 4), the second as the analyzer
// does, with none of them and another K: nothing of the first owner's may
// show through. The sink keeps the first owner's final counts and sees
// nothing of the second's, and nothing the first owner handed the matcher
// outlives its Release.
func TestRecycledMatcherMatchesFresh(t *testing.T) {
	// One P and no collection between the release and the second run: a
	// pool hands a value back only to a Get on the P that put it, and only
	// until the second GC.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	first := Config{Bins: 32, MaxReceives: 4096, BlockSize: 2, InFlightBlocks: 4, EarlyBookingCheck: true}
	second := Config{Bins: 32, MaxReceives: 4096, BlockSize: 2, InFlightBlocks: 1, EarlyBookingCheck: true}
	ops := matchtest.Generate(rand.New(rand.NewSource(36)), 3000, matchtest.Config{
		Sources: 4, Tags: 8, Comms: 2, PSrcWild: 0.2, PTagWild: 0.2, PPost: 0.6, Burstiness: 4})
	gold, goldPosted, goldUnexp := matchtest.Run(match.NewListMatcher(), ops)
	const hinted = match.CommID(9) // a communicator the workload never uses

	// handed is what run gives the matcher to keep: a receive nothing
	// matches, a message nothing receives, and a matched block message.
	type handed struct {
		recv     weak.Pointer[match.Recv]
		unexp    weak.Pointer[match.Envelope]
		blockMsg weak.Pointer[match.Envelope]
	}
	run := func(name string, m *OptimisticMatcher) (map[unsafe.Pointer]bool, handed) {
		got, posted, unexp := matchtest.Run(m.Sequential(), ops)
		if diff := matchtest.DiffPairings(gold, got); diff != "" {
			t.Fatalf("%s matcher: %s", name, diff)
		}
		if posted != goldPosted || unexp != goldUnexp {
			t.Fatalf("%s matcher: depths (%d,%d), list matcher (%d,%d)", name, posted, unexp, goldPosted, goldUnexp)
		}
		// One two-message block, so that the ring's slots exist too.
		envs := []*match.Envelope{{Source: 1, Tag: 1, Comm: hinted}, {Source: 1, Tag: 2, Comm: hinted}}
		for _, e := range envs {
			if _, _, err := m.PostRecv(&match.Recv{Source: 1, Tag: e.Tag, Comm: hinted}); err != nil {
				t.Fatal(err)
			}
		}
		m.ArriveBlock(envs)
		r, e := &match.Recv{Source: 2, Tag: 3, Comm: hinted}, &match.Envelope{Source: 3, Tag: 4, Comm: hinted}
		if _, _, err := m.PostRecv(r); err != nil {
			t.Fatal(err)
		}
		if res := m.Arrive(e); res.Recv != nil {
			t.Fatalf("%s matcher paired %v with %v", name, e, res.Recv)
		}
		if err := m.Stats().CheckQuiesced(m.DepthStats(), true); err != nil {
			t.Fatalf("%s matcher: %v", name, err)
		}
		return firstUseArrays(m), handed{weak.Make(r), weak.Make(e), weak.Make(envs[0])}
	}

	fresh, err := NewFresh(first)
	if err != nil {
		t.Fatal(err)
	}
	sink := obs.New(obs.Options{})
	fresh.SetObs(sink)
	hooked := 0
	fresh.SetUnexpectedHook(func(*match.Envelope) { hooked++ })
	fresh.SetCommHints(hinted, Hints{NoAnyTag: true})
	freshArrays, kept := run("fresh", fresh)
	// Every kind of first-use array must have been made, several chunks.
	if len(freshArrays) < 4+3+2 {
		t.Fatalf("the workload made only %d first-use arrays", len(freshArrays))
	}
	stats, depth := fresh.Stats(), fresh.DepthStats()
	if uint64(hooked) != stats.Unexpected {
		t.Fatalf("hook ran %d times for %d unexpected messages", hooked, stats.Unexpected)
	}
	fresh.Release()
	fresh.Release() // a no-op: the matcher must not be handed out twice
	sinkCounts := func() (c counterBlock) {
		sink.Fold()
		for i := range c {
			c[i] = sink.Counters.Load(obs.Counter(i))
		}
		return c
	}
	folded := sinkCounts()
	if folded[obs.CtrMessages] != stats.Messages || folded[obs.CtrMatched] != depth.Matched || folded[obs.CtrQueued] != depth.Queued {
		t.Fatalf("the released matcher's sink kept %v, want %+v %+v", folded, stats, depth)
	}
	// One collection leaves the released matcher in the pool's victim
	// cache, where New still finds it.
	runtime.GC()
	if kept.recv.Value() != nil || kept.unexp.Value() != nil || kept.blockMsg.Value() != nil {
		t.Fatalf("the released matcher still holds what its owner handed it")
	}

	recycled := MustNew(second)
	if twice := MustNew(second); twice == recycled {
		t.Fatal("a matcher released twice was handed out twice")
	}
	if !raceEnabled && recycled != fresh {
		t.Fatal("New built a matcher although one of its shape was released")
	}
	if recycled.Config() != second || recycled.obs.Load() != nil || recycled.onUnexpected != nil {
		t.Fatalf("the recycled matcher kept its owner's config, sink or hook")
	}
	if recycled.CommHints(hinted) != (Hints{}) || recycled.ring.slots != nil {
		t.Fatalf("the recycled matcher kept its owner's hints or K = %d ring", first.InFlightBlocks)
	}
	if s, d := recycled.Stats(), recycled.DepthStats(); s != (EngineStats{}) || d != (match.Stats{}) {
		t.Fatalf("the recycled matcher starts at %+v %+v", s, d)
	}
	if empty, total, maxChain := recycled.Occupancy(); empty != total || maxChain != 0 || recycled.PostedDepth() != 0 || recycled.UnexpectedDepth() != 0 {
		t.Fatalf("the recycled matcher starts with posted or unexpected entries")
	}
	recycledArrays, _ := run("recycled", recycled)
	if recycled.Stats() != stats || recycled.DepthStats() != depth {
		t.Fatalf("recycled matcher counts %+v %+v, fresh one %+v %+v", recycled.Stats(), recycled.DepthStats(), stats, depth)
	}
	if uint64(hooked) != stats.Unexpected || sinkCounts() != folded {
		t.Fatal("the first owner's hook or sink saw the second owner's traffic")
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

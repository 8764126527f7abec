package core_test

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/match"
	"repro/internal/match/matchtest"
)

// drive runs a scenario through the engine: posts go to PostRecv one at a
// time, and consecutive arrivals gather into batches of up to batch
// messages — a post flushes the batch first, because the scenario is
// sequential and a post happens-after every earlier arrival — which arrive
// matches, returning one settled result per message.
func drive(t *testing.T, m *core.OptimisticMatcher, ops []matchtest.Op, batch int, arrive func([]*match.Envelope) []core.Result) (pairings []match.Pairing, posted, unexpected int) {
	t.Helper()
	var seq uint64
	var pending []*match.Envelope

	flush := func() {
		if len(pending) == 0 {
			return
		}
		for _, res := range arrive(pending) {
			if !res.Unexpected {
				pairings = append(pairings, match.Pairing{MsgSeq: res.Env.Seq, RecvLabel: res.Recv.Label})
			}
		}
		pending = pending[:0]
	}

	for _, op := range ops {
		if op.Post {
			flush()
			r := &match.Recv{Source: op.Src, Tag: op.Tag, Comm: op.Comm}
			env, ok, err := m.PostRecv(r)
			if err != nil {
				t.Fatalf("PostRecv: %v", err)
			}
			if ok {
				pairings = append(pairings, match.Pairing{MsgSeq: env.Seq, RecvLabel: r.Label})
			}
		} else {
			seq++
			pending = append(pending, &match.Envelope{Source: op.Src, Tag: op.Tag, Comm: op.Comm, Seq: seq})
			if len(pending) == batch {
				flush()
			}
		}
	}
	flush()
	return pairings, m.PostedDepth(), m.UnexpectedDepth()
}

// runBlocks drives a scenario through the engine, grouping consecutive
// arrivals into parallel blocks of up to blockN messages, exactly as the
// DPA does over the incoming message stream.
func runBlocks(t *testing.T, m *core.OptimisticMatcher, ops []matchtest.Op, blockN int) (pairings []match.Pairing, posted, unexpected int) {
	t.Helper()
	return drive(t, m, ops, blockN, m.ArriveBlock)
}

func engineConfig(bins, blockN int, mutate func(*core.Config)) core.Config {
	cfg := core.Config{
		Bins:              bins,
		MaxReceives:       4096,
		BlockSize:         blockN,
		EarlyBookingCheck: true,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	return cfg
}

// TestParallelBlocksMatchGolden is the central correctness property: for
// random scenarios across wildcard mixes, burstiness, and key-space shapes,
// block-parallel optimistic matching must produce exactly the pairing that
// the sequential golden model produces — MPI matching is deterministic
// under constraints C1 and C2.
func TestParallelBlocksMatchGolden(t *testing.T) {
	cfgs := []matchtest.Config{
		matchtest.DefaultConfig(),
		{Sources: 2, Tags: 2, Comms: 1, PSrcWild: 0.4, PTagWild: 0.4},
		{Sources: 1, Tags: 1, Comms: 1},                               // single key: pure conflict storm
		{Sources: 1, Tags: 1, Comms: 1, PSrcWild: 0.5, PTagWild: 0.5}, // conflicts + wildcards
		{Sources: 4, Tags: 2, Comms: 1, Burstiness: 8},                // compatible sequences
		{Sources: 16, Tags: 16, Comms: 2},                             // spread keys, few conflicts
		{Sources: 3, Tags: 3, Comms: 1, PPost: 0.25, Burstiness: 4},   // arrival floods
		{Sources: 3, Tags: 3, Comms: 1, PPost: 0.75, Burstiness: 4},   // receive floods
	}
	blockNs := []int{1, 2, 3, 4, 8, 16, 32}
	for ci, sc := range cfgs {
		for _, bn := range blockNs {
			rng := rand.New(rand.NewSource(int64(100*ci + bn)))
			for iter := 0; iter < 6; iter++ {
				ops := matchtest.Generate(rng, 300, sc)
				gold, gp, gu := matchtest.Run(match.NewListMatcher(), ops)

				m := core.MustNew(engineConfig(64, bn, nil))
				got, pp, pu := runBlocks(t, m, ops, bn)
				if diff := matchtest.DiffPairings(gold, got); diff != "" {
					t.Fatalf("scenario %d block %d iter %d: %s", ci, bn, iter, diff)
				}
				if gp != pp || gu != pu {
					t.Fatalf("scenario %d block %d iter %d: depths golden (%d,%d) engine (%d,%d)",
						ci, bn, iter, gp, gu, pp, pu)
				}
			}
		}
	}
}

// TestAblationsMatchGolden re-runs the equivalence property with each
// optimization toggled: the §IV-D optimizations must never change results.
func TestAblationsMatchGolden(t *testing.T) {
	mutations := map[string]func(*core.Config){
		"no-early-check":   func(c *core.Config) { c.EarlyBookingCheck = false },
		"no-fast-path":     func(c *core.Config) { c.DisableFastPath = true },
		"one-bin":          func(c *core.Config) { c.Bins = 1 },
		"simultaneous":     func(c *core.Config) { c.SimultaneousArrival = true },
		"simultaneous-raw": func(c *core.Config) { c.SimultaneousArrival = true; c.EarlyBookingCheck = false },
	}
	sc := matchtest.Config{Sources: 2, Tags: 2, Comms: 1, PSrcWild: 0.3, PTagWild: 0.3, Burstiness: 5}
	for name, mut := range mutations {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			for iter := 0; iter < 8; iter++ {
				ops := matchtest.Generate(rng, 300, sc)
				gold, _, _ := matchtest.Run(match.NewListMatcher(), ops)
				cfg := engineConfig(64, 16, mut)
				if cfg.Bins == 0 {
					cfg.Bins = 1
				}
				m := core.MustNew(cfg)
				got, _, _ := runBlocks(t, m, ops, 16)
				if diff := matchtest.DiffPairings(gold, got); diff != "" {
					t.Fatalf("iter %d: %s", iter, diff)
				}
			}
		})
	}
}

// TestSequentialAdapterMatchesGolden runs the match.Matcher adapter through
// the shared scenario driver.
func TestSequentialAdapterMatchesGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 10; iter++ {
		ops := matchtest.Generate(rng, 500, matchtest.DefaultConfig())
		gold, gp, gu := matchtest.Run(match.NewListMatcher(), ops)
		m := core.MustNew(engineConfig(32, 1, nil))
		got, pp, pu := matchtest.Run(m.Sequential(), ops)
		if diff := matchtest.DiffPairings(gold, got); diff != "" {
			t.Fatalf("iter %d: %s", iter, diff)
		}
		if gp != pp || gu != pu {
			t.Fatalf("iter %d: depth mismatch", iter)
		}
	}
}

// TestConflictFreeBlocksStayOptimistic reproduces the paper's no-conflict
// scenario (Fig. 8 "NC"): distinct (source,tag) keys mean every thread
// books a different receive, so no conflict resolution ever runs.
func TestConflictFreeBlocksStayOptimistic(t *testing.T) {
	m := core.MustNew(engineConfig(256, 32, nil))
	const n = 32
	for i := 0; i < n; i++ {
		if _, _, err := m.PostRecv(&match.Recv{Source: match.Rank(i), Tag: match.Tag(i)}); err != nil {
			t.Fatal(err)
		}
	}
	envs := make([]*match.Envelope, n)
	for i := range envs {
		envs[i] = &match.Envelope{Source: match.Rank(i), Tag: match.Tag(i)}
	}
	for _, res := range m.ArriveBlock(envs) {
		if res.Unexpected || res.Path != core.PathOptimistic {
			t.Fatalf("expected optimistic match, got %+v", res)
		}
	}
	st := m.Stats()
	if st.Conflicts != 0 || st.FastPath != 0 || st.SlowPath != 0 {
		t.Fatalf("conflict-free run recorded conflicts: %+v", st)
	}
	if st.Optimistic != n {
		t.Fatalf("Optimistic = %d, want %d", st.Optimistic, n)
	}
}

// TestFastPathOnCompatibleSequence reproduces the Fig. 8 "WC-FP" scenario:
// a long run of receives with identical (source,tag) and a block of
// messages all matching them. All threads book the sequence head; the fast
// path shifts each thread to its own receive. The early booking check is
// disabled here: with it on, threads skip already-booked entries during the
// search and spread over the sequence without conflicting at all (see
// TestEarlyBookingCheckAvoidsConflicts).
func TestFastPathOnCompatibleSequence(t *testing.T) {
	m := core.MustNew(engineConfig(256, 16, func(c *core.Config) {
		c.EarlyBookingCheck = false
		c.SimultaneousArrival = true
	}))
	const n = 16
	labels := make([]uint64, n)
	for i := 0; i < n; i++ {
		r := &match.Recv{Source: 1, Tag: 7}
		if _, _, err := m.PostRecv(r); err != nil {
			t.Fatal(err)
		}
		labels[i] = r.Label
	}
	envs := make([]*match.Envelope, n)
	for i := range envs {
		envs[i] = &match.Envelope{Source: 1, Tag: 7}
	}
	results := m.ArriveBlock(envs)
	for i, res := range results {
		if res.Unexpected {
			t.Fatalf("message %d went unexpected", i)
		}
		if res.Recv.Label != labels[i] {
			t.Fatalf("message %d matched label %d, want %d (shift order)", i, res.Recv.Label, labels[i])
		}
	}
	st := m.Stats()
	if st.FastPath == 0 {
		t.Fatalf("fast path never taken: %+v", st)
	}
	if st.SlowPath != 0 {
		t.Fatalf("slow path taken %d times in a pure compatible sequence", st.SlowPath)
	}
}

// TestSlowPathWhenFastPathDisabled is the Fig. 8 "WC-SP" scenario.
func TestSlowPathWhenFastPathDisabled(t *testing.T) {
	m := core.MustNew(engineConfig(256, 16, func(c *core.Config) {
		c.DisableFastPath = true
		c.EarlyBookingCheck = false
		c.SimultaneousArrival = true
	}))
	const n = 16
	for i := 0; i < n; i++ {
		if _, _, err := m.PostRecv(&match.Recv{Source: 1, Tag: 7}); err != nil {
			t.Fatal(err)
		}
	}
	envs := make([]*match.Envelope, n)
	for i := range envs {
		envs[i] = &match.Envelope{Source: 1, Tag: 7}
	}
	results := m.ArriveBlock(envs)
	var last uint64
	for i, res := range results {
		if res.Unexpected {
			t.Fatalf("message %d went unexpected", i)
		}
		if i > 0 && res.Recv.Label <= last {
			t.Fatalf("ordering violated on slow path: label %d after %d", res.Recv.Label, last)
		}
		last = res.Recv.Label
	}
	st := m.Stats()
	if st.SlowPath == 0 {
		t.Fatalf("slow path never taken: %+v", st)
	}
	if st.FastPath != 0 {
		t.Fatalf("fast path taken despite DisableFastPath: %+v", st)
	}
}

// TestEarlyBookingCheckAvoidsConflicts: with the §IV-D early booking check
// enabled, threads skip entries already booked by lower threads during the
// optimistic search and spread over a compatible sequence, so a with-
// conflict workload still pairs correctly whichever mixture of paths the
// timing produces.
func TestEarlyBookingCheckAvoidsConflicts(t *testing.T) {
	for iter := 0; iter < 20; iter++ {
		m := core.MustNew(engineConfig(256, 16, nil))
		const n = 16
		for i := 0; i < n; i++ {
			if _, _, err := m.PostRecv(&match.Recv{Source: 1, Tag: 7}); err != nil {
				t.Fatal(err)
			}
		}
		envs := make([]*match.Envelope, n)
		for i := range envs {
			envs[i] = &match.Envelope{Source: 1, Tag: 7}
		}
		for i, res := range m.ArriveBlock(envs) {
			if res.Unexpected {
				t.Fatalf("iter %d: message %d went unexpected", iter, i)
			}
			if res.Recv.Label != uint64(i) {
				t.Fatalf("iter %d: message %d matched label %d, want %d",
					iter, i, res.Recv.Label, i)
			}
		}
		st := m.Stats()
		if st.Optimistic+st.FastPath+st.SlowPath < n {
			t.Fatalf("iter %d: path accounting too low: %+v", iter, st)
		}
	}
}

// TestSequenceShorterThanBlock: when the compatible sequence runs out, the
// overflow threads must fall to the slow path and the surplus messages go
// unexpected, preserving order.
func TestSequenceShorterThanBlock(t *testing.T) {
	m := core.MustNew(engineConfig(256, 8, nil))
	for i := 0; i < 3; i++ {
		if _, _, err := m.PostRecv(&match.Recv{Source: 1, Tag: 7}); err != nil {
			t.Fatal(err)
		}
	}
	envs := make([]*match.Envelope, 8)
	for i := range envs {
		envs[i] = &match.Envelope{Source: 1, Tag: 7}
	}
	results := m.ArriveBlock(envs)
	for i := 0; i < 3; i++ {
		if results[i].Unexpected {
			t.Fatalf("message %d should have matched", i)
		}
	}
	for i := 3; i < 8; i++ {
		if !results[i].Unexpected {
			t.Fatalf("message %d should be unexpected", i)
		}
	}
	// The unexpected messages must later match receives in arrival order.
	for want := uint64(4); want <= 8; want++ {
		env, ok, err := m.PostRecv(&match.Recv{Source: 1, Tag: 7})
		if err != nil || !ok {
			t.Fatalf("unexpected store drain failed at seq %d", want)
		}
		if env.Seq != want {
			t.Fatalf("drained seq %d, want %d", env.Seq, want)
		}
	}
}

// TestBrokenSequenceForcesSlowPath: an incompatible receive posted between
// two same-key runs breaks the sequence ID, so the fast-path shift must
// stop at the boundary rather than skip over the interloper.
func TestBrokenSequenceForcesSlowPath(t *testing.T) {
	m := core.MustNew(engineConfig(256, 4, nil))
	m.PostRecv(&match.Recv{Source: 1, Tag: 7}) // seq A
	m.PostRecv(&match.Recv{Source: 1, Tag: 7}) // seq A
	m.PostRecv(&match.Recv{Source: 2, Tag: 9}) // interloper, breaks sequence
	m.PostRecv(&match.Recv{Source: 1, Tag: 7}) // seq B
	m.PostRecv(&match.Recv{Source: 1, Tag: 7}) // seq B

	envs := make([]*match.Envelope, 4)
	for i := range envs {
		envs[i] = &match.Envelope{Source: 1, Tag: 7}
	}
	results := m.ArriveBlock(envs)
	var labels []uint64
	for i, res := range results {
		if res.Unexpected {
			t.Fatalf("message %d went unexpected", i)
		}
		labels = append(labels, res.Recv.Label)
	}
	want := []uint64{0, 1, 3, 4}
	for i := range want {
		if labels[i] != want[i] {
			t.Fatalf("labels = %v, want %v", labels, want)
		}
	}
}

// TestTableFullFallback: exhausting the descriptor table must surface
// ErrTableFull (the software-fallback trigger), and capacity must recover
// once receives are consumed.
func TestTableFullFallback(t *testing.T) {
	cfg := engineConfig(16, 4, nil)
	cfg.MaxReceives = 2
	m := core.MustNew(cfg)
	m.PostRecv(&match.Recv{Source: 1, Tag: 1})
	m.PostRecv(&match.Recv{Source: 2, Tag: 2})
	if _, _, err := m.PostRecv(&match.Recv{Source: 3, Tag: 3}); err != core.ErrTableFull {
		t.Fatalf("err = %v, want ErrTableFull", err)
	}
	if m.Stats().TableFull != 1 {
		t.Fatal("TableFull stat not recorded")
	}
	// Consume one receive; a slot must free up.
	m.Arrive(&match.Envelope{Source: 1, Tag: 1})
	if _, _, err := m.PostRecv(&match.Recv{Source: 4, Tag: 4}); err != nil {
		t.Fatalf("slot not recycled: %v", err)
	}
}

// TestMemoryFootprint checks the §IV-E numbers: 128 bins cost 7.5 KiB over
// the three tables, and 8 K receives cost 512 KiB of descriptors — "about
// 520 KiB of DPA memory".
func TestMemoryFootprint(t *testing.T) {
	cfg := engineConfig(128, 32, nil)
	cfg.MaxReceives = 8192
	m := core.MustNew(cfg)
	f := m.ModelFootprint()
	if f.BinBytes != 3*128*20 {
		t.Fatalf("BinBytes = %d, want %d", f.BinBytes, 3*128*20)
	}
	if f.BinBytes != 7680 { // 7.5 KiB
		t.Fatalf("BinBytes = %d, want 7680 (7.5 KiB)", f.BinBytes)
	}
	if f.DescriptorBytes != 8192*64 {
		t.Fatalf("DescriptorBytes = %d, want %d", f.DescriptorBytes, 8192*64)
	}
	totalKiB := float64(f.Total()) / 1024
	if totalKiB < 519 || totalKiB > 521 {
		t.Fatalf("total = %.1f KiB, want about 520 KiB", totalKiB)
	}
}

// TestConfigValidation covers the constructor's error paths.
func TestConfigValidation(t *testing.T) {
	bad := []core.Config{
		{Bins: 0, MaxReceives: 1, BlockSize: 1},
		{Bins: 1, MaxReceives: 0, BlockSize: 1},
		{Bins: 1, MaxReceives: 1, BlockSize: 0},
		{Bins: 1, MaxReceives: 1, BlockSize: core.MaxBlockSize + 1},
	}
	for i, cfg := range bad {
		if _, err := core.New(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	if _, err := core.New(core.DefaultConfig()); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNew must panic on a bad config")
		}
	}()
	core.MustNew(core.Config{})
}

// TestWildcardReceivesAcrossIndexes: constraint C1 must hold between
// indexes — a both-wildcard receive posted first beats a full-key receive
// posted second, whichever index they live in.
func TestWildcardReceivesAcrossIndexes(t *testing.T) {
	m := core.MustNew(engineConfig(64, 4, nil))
	r0 := &match.Recv{Source: match.AnySource, Tag: match.AnyTag}
	r1 := &match.Recv{Source: 5, Tag: 5}
	r2 := &match.Recv{Source: match.AnySource, Tag: 5}
	r3 := &match.Recv{Source: 5, Tag: match.AnyTag}
	for _, r := range []*match.Recv{r0, r1, r2, r3} {
		if _, _, err := m.PostRecv(r); err != nil {
			t.Fatal(err)
		}
	}
	order := make([]uint64, 0, 4)
	for i := 0; i < 4; i++ {
		res := m.Arrive(&match.Envelope{Source: 5, Tag: 5})
		if res.Unexpected {
			t.Fatalf("arrival %d went unexpected", i)
		}
		order = append(order, res.Recv.Label)
	}
	for i, label := range order {
		if label != uint64(i) {
			t.Fatalf("C1 across indexes violated: order %v", order)
		}
	}
}

// TestEngineStatsReset exercises the bookkeeping accessors.
func TestEngineStatsReset(t *testing.T) {
	m := core.MustNew(engineConfig(16, 2, nil))
	m.Arrive(&match.Envelope{Source: 1, Tag: 1})
	if m.Stats().Messages != 1 || m.Stats().Unexpected != 1 {
		t.Fatalf("stats = %+v", m.Stats())
	}
	m.ResetStats()
	if m.Stats().Messages != 0 {
		t.Fatal("ResetStats did not clear")
	}
	if m.DepthStats().ArriveSearches != 1 {
		t.Fatal("depth stats cleared by ResetStats")
	}
	m.ResetDepthStats()
	if m.DepthStats().ArriveSearches != 0 {
		t.Fatal("ResetDepthStats did not clear")
	}
	if m.Config().Bins != 16 {
		t.Fatal("Config accessor wrong")
	}
}

// TestPublicAccessors covers the thin engine accessors end to end.
func TestPublicAccessors(t *testing.T) {
	m := core.MustNew(engineConfig(16, 2, nil))
	seq := m.Sequential()

	// PeekUnexpected surfaces stored messages without consuming.
	m.Arrive(&match.Envelope{Source: 2, Tag: 3})
	if got, ok := m.PeekUnexpected(&match.Recv{Source: 2, Tag: 3}); !ok || got != (match.Probed{Source: 2, Tag: 3}) {
		t.Fatal("PeekUnexpected missed a stored message")
	}
	if m.UnexpectedDepth() != 1 {
		t.Fatal("peek consumed the message")
	}

	// Occupancy reflects posted entries.
	if _, _, err := m.PostRecv(&match.Recv{Source: 1, Tag: 1}); err != nil {
		t.Fatal(err)
	}
	empty, total, maxChain := m.Occupancy()
	if total != 3*16 || empty != total-1 || maxChain != 1 {
		t.Fatalf("occupancy = (%d,%d,%d)", empty, total, maxChain)
	}

	// Sequential adapter stats mirror the engine's depth stats.
	if seq.Stats().ArriveSearches != m.DepthStats().ArriveSearches {
		t.Fatal("adapter Stats out of sync")
	}
	seq.ResetStats()
	if m.DepthStats().ArriveSearches != 0 {
		t.Fatal("adapter ResetStats did not clear")
	}
}

// TestEngineStatsAddCoversEveryField fails when a field added to
// EngineStats is not summed by Add: every field gets a distinct value on
// each side, and each must come out as the sum.
func TestEngineStatsAddCoversEveryField(t *testing.T) {
	var a, b core.EngineStats
	av, bv := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < av.NumField(); i++ {
		av.Field(i).SetUint(uint64(i + 1))
		bv.Field(i).SetUint(uint64(100 * (i + 1)))
	}
	a.Add(b)
	for i := 0; i < av.NumField(); i++ {
		if got, want := av.Field(i).Uint(), uint64(101*(i+1)); got != want {
			t.Errorf("Add leaves %s at %d, want %d", av.Type().Field(i).Name, got, want)
		}
	}
}

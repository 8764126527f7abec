package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/match"
	"repro/internal/obs"
)

// The matcher counts in plain words under ring.mu and the post lock and
// folds them into its sink for every reader (DESIGN.md §10). These tests
// hold the contract readers had when every counter was an atomic.

// TestStatsVisibleToWokenObserver: a block counts its messages when it
// launches, under ring.mu, and Stats folds under ring.mu, so an observer
// woken by a completion a handler delivered mid-block already reads the
// block's traffic — on the block path and on Arrive's.
func TestStatsVisibleToWokenObserver(t *testing.T) {
	const blockN, blocks = 4, 50
	m := MustNew(Config{Bins: 8, MaxReceives: 1024, BlockSize: blockN, InFlightBlocks: 4, EarlyBookingCheck: true})
	for i := 0; i < blocks*(blockN+1); i++ {
		if _, _, err := m.PostRecv(&match.Recv{Source: 1, Tag: match.Tag(i)}); err != nil {
			t.Fatal(err)
		}
	}
	type wake struct{ blocks, messages uint64 }
	woken := make(chan wake)
	seen := make(chan EngineStats)
	go func() {
		for range woken {
			seen <- m.Stats()
		}
		close(seen)
	}()
	var want wake
	observe := func(where string) {
		woken <- want
		if st := <-seen; st.Blocks < want.blocks || st.Messages < want.messages {
			t.Fatalf("%s: woken observer read %d blocks, %d messages; %d and %d were launched",
				where, st.Blocks, st.Messages, want.blocks, want.messages)
		}
	}
	tag := 0
	for i := 0; i < blocks; i++ {
		b := m.BeginBlock(blockN)
		want.blocks, want.messages = want.blocks+1, want.messages+blockN
		for tid := 0; tid < blockN; tid++ {
			b.Match(tid, &match.Envelope{Source: 1, Tag: match.Tag(tag)})
			tag++
			observe(fmt.Sprintf("block %d after thread %d", i, tid)) // the handler completed a request
		}
		b.Finish()

		l := launchHead(m)
		want.blocks, want.messages = want.blocks+1, want.messages+1
		observe(fmt.Sprintf("Arrive %d after its launch", i))
		m.arriveHead(&match.Envelope{Source: 1, Tag: match.Tag(tag)}, l)
		tag++
	}
	close(woken)
	<-seen
	st := m.Stats()
	if st.Messages != want.messages || st.Optimistic != want.messages {
		t.Fatalf("stats %+v, want %d messages, all optimistic", st, want.messages)
	}
	if err := st.CheckQuiesced(m.DepthStats(), true); err != nil {
		t.Fatal(err)
	}
}

// counterViews reads every matcher-owned counter the four ways a reader
// can: Stats and DepthStats, the sink's snapshot, and the Prometheus text.
func counterViews(t *testing.T, m *OptimisticMatcher) (api, snap, prom map[string]uint64) {
	t.Helper()
	st, d := m.Stats(), m.DepthStats()
	api = map[string]uint64{
		"blocks": st.Blocks, "messages": st.Messages, "optimistic": st.Optimistic,
		"conflicts": st.Conflicts, "fast_path": st.FastPath, "slow_path": st.SlowPath,
		"unexpected": st.Unexpected, "relaxed": st.Relaxed, "table_full": st.TableFull,
		"lazy_sweeps": st.LazySweeps, "lazy_reaped": st.LazyReaped, "revalidated": st.Revalidated,
		"steals": st.Steals, "retires": st.Retires,
		"post_searches": d.PostSearches, "post_traversed": d.PostTraversed, "post_max_depth": d.PostMaxDepth,
		"arrive_searches": d.ArriveSearches, "arrive_traversed": d.ArriveTraversed, "arrive_max_depth": d.ArriveMaxDepth,
		"matched": d.Matched, "unexpected_stored": d.Unexpected, "queued": d.Queued,
	}
	for name, v := range api {
		if v == 0 {
			delete(api, name) // the exports omit zero counters
		}
	}
	snap = m.Obs().Snapshot().Counters
	var text bytes.Buffer
	if err := obs.WriteProm(&text, "t", []obs.LabeledSinks{{Sinks: []*obs.Sink{m.Obs()}}}); err != nil {
		t.Fatal(err)
	}
	prom = make(map[string]uint64)
	for _, line := range strings.Split(text.String(), "\n") {
		var name string
		var v uint64
		if _, err := fmt.Sscanf(line, "t_%s %d", &name, &v); err == nil && strings.HasSuffix(name, "_total") {
			prom[strings.TrimSuffix(name, "_total")] = v
		}
	}
	return api, snap, prom
}

// TestCountersFoldOnce: after quiesce every view of the counters agrees, a
// second fold adds nothing, the post-depth histogram has one sample per
// post, and all of it is in the sink SetObs installed — the default sink a
// first reader built received nothing and nothing keeps it alive.
func TestCountersFoldOnce(t *testing.T) {
	// One bin: every search has something to traverse.
	m := MustNew(Config{Bins: 1, MaxReceives: 64, BlockSize: 4, InFlightBlocks: 4, EarlyBookingCheck: true})
	private := m.Obs()
	collected := make(chan struct{})
	runtime.SetFinalizer(private, func(*obs.Sink) { close(collected) })
	sink := obs.New(obs.Options{})
	m.SetObs(sink)

	// Conflicts, wildcards, the store in both directions and a full table.
	rng := rand.New(rand.NewSource(3))
	posts := 0
	for round := 0; round < 40; round++ {
		for i := rng.Intn(24); i > 0; i-- {
			r := &match.Recv{Source: match.Rank(rng.Intn(2)), Tag: match.Tag(rng.Intn(2))}
			if rng.Intn(5) == 0 {
				r.Source = match.AnySource
			}
			m.PostRecv(r) // ErrTableFull is one of the outcomes counted
			posts++
		}
		envs := make([]*match.Envelope, 1+rng.Intn(16))
		for i := range envs {
			envs[i] = &match.Envelope{Source: match.Rank(rng.Intn(2)), Tag: match.Tag(rng.Intn(2))}
		}
		if len(envs) == 1 {
			m.Arrive(envs[0])
		} else {
			m.ArrivePipelined(envs)
		}
	}

	api, snap, prom := counterViews(t, m)
	for _, name := range []string{"conflicts", "table_full", "unexpected", "matched", "queued", "post_traversed", "lazy_reaped"} {
		if api[name] == 0 {
			t.Errorf("the scenario never moved %s", name)
		}
	}
	equal := func(what string, got map[string]uint64) {
		t.Helper()
		for name, want := range api {
			if got[name] != want {
				t.Errorf("%s: %s = %d, Stats/DepthStats say %d", what, name, got[name], want)
			}
		}
	}
	equal("Sink.Snapshot", snap)
	equal("Prometheus text", prom)
	if h := sink.Hist(obs.HistPostDepth); h.Count != uint64(posts) || h.Sum != api["post_traversed"] {
		t.Errorf("post_depth histogram: %d samples summing to %d, want %d and %d", h.Count, h.Sum, posts, api["post_traversed"])
	}
	if err := m.Stats().CheckQuiesced(m.DepthStats(), false); err != nil {
		t.Error(err)
	}

	sink.Fold()
	sink.Fold()
	again, snapAgain, _ := counterViews(t, m)
	if fmt.Sprint(again) != fmt.Sprint(api) || fmt.Sprint(snapAgain) != fmt.Sprint(snap) {
		t.Errorf("a second fold moved the counters:\nbefore %v\nafter  %v", api, again)
	}

	if got := private.Snapshot().Counters; len(got) != 0 {
		t.Errorf("the replaced private sink received %v", got)
	}
	private = nil
	for deadline := time.Now().Add(10 * time.Second); ; {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("the default sink is still reachable after SetObs replaced it")
		}
	}
}

// TestDefaultSinkBuiltOnce: a matcher no sink was installed on counts in its
// plain words, and its first readers, however many race, agree on one
// default sink that holds everything counted before they came.
func TestDefaultSinkBuiltOnce(t *testing.T) {
	m := MustNew(Config{Bins: 8, MaxReceives: 64, BlockSize: 1})
	for i := 0; i < 10; i++ {
		m.PostRecv(&match.Recv{Source: 1, Tag: match.Tag(i)})
		m.Arrive(&match.Envelope{Source: 1, Tag: match.Tag(i)})
	}
	if m.obs.Load() != nil {
		t.Fatal("traffic built a sink nobody asked for")
	}
	sinks := make([]*obs.Sink, 8)
	stats := make([]EngineStats, len(sinks))
	var wg sync.WaitGroup
	for i := range sinks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stats[i], sinks[i] = m.Stats(), m.Obs()
		}()
	}
	wg.Wait()
	for i := range sinks {
		if sinks[i] != sinks[0] {
			t.Fatalf("reader %d got a sink of its own", i)
		}
		if stats[i].Messages != 10 || stats[i].Retires != 10 {
			t.Fatalf("reader %d: %+v, want 10 messages retired", i, stats[i])
		}
	}
	if got := m.DepthStats().Matched; got != 10 {
		t.Fatalf("Matched = %d, want 10", got)
	}
}

// TestStatsVisibleMonotoneToPollingReader: a reader looping Stats and
// Snapshot beside K = 4 traffic and a racing poster never sees a counter go
// backwards, and a ResetStats issued between two batches, while the poster
// is still posting, leaves identities CheckQuiesced holds the rest of the
// run to: what was counted before the reset is gone whole, not in part.
func TestStatsVisibleMonotoneToPollingReader(t *testing.T) {
	const blockN, depth, batches, nKeys = 4, 4, 120, 5
	m := MustNew(Config{Bins: 16, MaxReceives: 8192, BlockSize: blockN, InFlightBlocks: depth, EarlyBookingCheck: true})

	stop := make(chan struct{})
	var arrived atomic.Int64 // paces the poster: it stays at most 1024 posts ahead
	var epoch atomic.Uint64  // odd while the reset is in progress
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // poster
		defer wg.Done()
		for i := 0; ; {
			select {
			case <-stop:
				return
			default:
			}
			if int64(i) >= arrived.Load()+1024 {
				runtime.Gosched()
				continue
			}
			if _, _, err := m.PostRecv(&match.Recv{Source: 1, Tag: match.Tag(i % nKeys)}); err != nil {
				t.Errorf("PostRecv: %v", err)
				return
			}
			i++
		}
	}()
	go func() { // reader
		defer wg.Done()
		var last map[string]uint64
		var lastEpoch uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			before := epoch.Load()
			_ = m.Stats()
			now := m.Obs().Snapshot().Counters
			if before&1 == 1 || epoch.Load() != before {
				continue // the snapshot may straddle the reset
			}
			if lastEpoch == before {
				for name, v := range last {
					if now[name] < v {
						t.Errorf("%s went from %d to %d", name, v, now[name])
						return
					}
				}
			}
			last, lastEpoch = now, before
		}
	}()

	var afterReset uint64
	for b := 0; b < batches; b++ {
		if b == batches/2 {
			epoch.Add(1)
			m.ResetStats()
			m.ResetDepthStats()
			epoch.Add(1)
			afterReset = 0
		}
		envs := make([]*match.Envelope, depth*blockN)
		for i := range envs {
			envs[i] = &match.Envelope{Source: 1, Tag: match.Tag(i % nKeys)}
		}
		m.ArrivePipelined(envs)
		afterReset += uint64(len(envs))
		arrived.Add(int64(len(envs)))
	}
	close(stop)
	wg.Wait()
	st, d := m.Stats(), m.DepthStats()
	if st.Messages != afterReset {
		t.Fatalf("Messages = %d after the reset, %d arrived since", st.Messages, afterReset)
	}
	if err := st.CheckQuiesced(d, false); err != nil {
		t.Fatal(err)
	}
}

// TestReclaimWaitsForLaunchedBlocks races the post side's alloc against
// launches and retirements that release what it allocated, and keeps its own
// books: a slot released when blocks up to sequence T had been launched may
// come back from alloc only once block T has retired. PostedDepth stays
// within [0, MaxReceives] throughout, and once everything has retired the
// table takes exactly MaxReceives posts: nothing is held back by the queue.
func TestReclaimWaitsForLaunchedBlocks(t *testing.T) {
	for _, depth := range []int{4, 8} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("K=%d/seed=%d", depth, seed), func(t *testing.T) {
				reclaimRace(t, depth, seed)
			})
		}
	}
}

func reclaimRace(t *testing.T, depth int, seed int64) {
	const maxRecvs, total = 3 * chunkSize, 20000
	m := MustNew(Config{Bins: 8, MaxReceives: maxRecvs, BlockSize: MaxBlockSize, InFlightBlocks: depth})

	// The test's books. tag[slot] is written by the retiring goroutine
	// before it releases the slot and read by the allocating one after the
	// slot comes back, with the table's own locks in between.
	var tag [maxRecvs]atomic.Uint64
	var retiredView atomic.Uint64 // advanced before the engine's frontier
	allocated := make(chan *descriptor, maxRecvs)

	done := make(chan struct{})
	go func() { // the post side: alloc under the post lock, as PostRecv does
		defer close(allocated)
		fulls := 0
		for n := 0; n < total; {
			m.unexpected.mu.Lock()
			d := m.table.alloc()
			m.unexpected.mu.Unlock()
			if d == nil {
				fulls++
				runtime.Gosched() // full until the other side retires something
				continue
			}
			if want := tag[d.slot].Load(); retiredView.Load() < want {
				t.Errorf("slot %d came back from alloc with block %d, launched before its release, unretired (frontier %d)",
					d.slot, want, retiredView.Load())
				return
			}
			d.markPosted()
			allocated <- d
			n++
			if p := m.PostedDepth(); p < 0 || p > maxRecvs {
				t.Errorf("PostedDepth() = %d with MaxReceives %d", p, maxRecvs)
				return
			}
		}
		if fulls == 0 {
			t.Log("the table never filled")
		}
	}()

	go func() { // the arrival side: launch up to depth blocks, retire in order
		defer close(done)
		rng := rand.New(rand.NewSource(seed))
		type inflight struct {
			l     launch
			n     int
			slots []int32
		}
		var ring []inflight
		var launched uint64
		for open := true; open || len(ring) > 0; {
			var slots []int32
			if open && len(ring) < depth && (len(ring) == 0 || rng.Intn(3) > 0) {
				// Whatever is allocated by now, up to a block's worth. Never
				// wait: the table may be full until this side retires.
			fill:
				for want := 1 + rng.Intn(MaxBlockSize); len(slots) < want; {
					select {
					case d, ok := <-allocated:
						if !ok {
							open = false
							break fill
						}
						d.consume(launched+1, len(slots))
						d.word.Store(stateFree) // sweep's mark; these were never linked
						slots = append(slots, d.slot)
					default:
						break fill
					}
				}
			}
			switch {
			case len(slots) > 0:
				b := inflight{n: len(slots), slots: slots}
				m.ring.mu.Lock()
				b.l = m.launchLocked(b.n)
				m.ring.mu.Unlock()
				launched = b.l.seq
				ring = append(ring, b)
			case len(ring) > 0:
				b := ring[0]
				ring = ring[1:]
				for _, s := range b.slots {
					tag[s].Store(launched)
				}
				retiredView.Store(b.l.seq)
				m.retire(b.l, b.n, &threadStats{}, b.slots)
				if p := m.PostedDepth(); p < 0 || p > maxRecvs {
					t.Errorf("PostedDepth() = %d with MaxReceives %d", p, maxRecvs)
				}
			default:
				runtime.Gosched() // nothing allocated, nothing in flight
			}
		}
	}()
	<-done
	if t.Failed() {
		return
	}

	if p := m.PostedDepth(); p != 0 {
		t.Fatalf("PostedDepth() = %d with everything retired", p)
	}
	for i := 0; i < maxRecvs; i++ {
		if _, _, err := m.PostRecv(&match.Recv{Source: 1, Tag: match.Tag(i)}); err != nil {
			t.Fatalf("post %d of %d after everything retired: %v", i, maxRecvs, err)
		}
	}
	if _, _, err := m.PostRecv(&match.Recv{Source: 1, Tag: 0}); !errors.Is(err, ErrTableFull) {
		t.Fatalf("post past capacity: err = %v, want ErrTableFull", err)
	}
	if p := m.PostedDepth(); p != maxRecvs {
		t.Fatalf("PostedDepth() = %d, want %d", p, maxRecvs)
	}
}

// TestLockOrder pins the one nesting the matcher has: the post lock
// (unexpected.mu), then ring.mu, which is a leaf. With the post lock held by
// the test, every operation that takes it must come to rest on it with
// ring.mu free; one that waited for the post lock inside a ring.mu section
// would deadlock against alloc's refill, which nests the other way round.
func TestLockOrder(t *testing.T) {
	m := MustNew(Config{Bins: 8, MaxReceives: 64, BlockSize: 2, InFlightBlocks: 2, EarlyBookingCheck: true})
	if _, _, err := m.PostRecv(&match.Recv{Source: 1, Tag: 1}); err != nil {
		t.Fatal(err)
	}
	for _, op := range []struct {
		name string
		run  func()
	}{
		{"PostRecv", func() { m.PostRecv(&match.Recv{Source: 1, Tag: 2}) }},
		{"Arrive (unexpected)", func() { m.Arrive(&match.Envelope{Source: 2, Tag: 9}) }},
		{"Block.Finish (validate)", func() {
			b := m.BeginBlock(1)
			b.Match(0, &match.Envelope{Source: 2, Tag: 9})
			b.Finish()
		}},
		{"Stats (fold)", func() { m.Stats() }},
		{"ResetDepthStats", func() { m.ResetDepthStats() }},
		{"Sink.Snapshot", func() { m.Obs().Snapshot() }},
		{"PostedDepth", func() { m.PostedDepth() }},
		{"UnexpectedDepth", func() { m.UnexpectedDepth() }},
	} {
		m.unexpected.mu.Lock()
		done := make(chan struct{})
		go func() {
			defer close(done)
			lockOrderProbe(op.run)
		}()
		// With the post lock held here, the only mutex the operation can
		// come to rest on is that one.
		switch {
		case !waitParked(done):
			t.Errorf("%s: never came to rest on the post lock; if it no longer takes it, drop it from this list", op.name)
		case !m.ring.mu.TryLock():
			t.Errorf("%s: waits for the post lock with ring.mu held", op.name)
		default:
			m.ring.mu.Unlock()
		}
		m.unexpected.mu.Unlock()
		<-done
	}
	// The detector detects: the forbidden nesting, made on purpose.
	m.unexpected.mu.Lock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		lockOrderProbe(func() {
			m.ring.mu.Lock()
			m.unexpected.mu.Lock()
			m.unexpected.mu.Unlock()
			m.ring.mu.Unlock()
		})
	}()
	if !waitParked(done) {
		t.Fatal("the forbidden nesting did not block")
	}
	if m.ring.mu.TryLock() {
		t.Error("ring.mu was free while a goroutine held it and waited for the post lock")
		m.ring.mu.Unlock()
	}
	m.unexpected.mu.Unlock()
	<-done
}

// lockOrderProbe exists to put its name on the stack of the goroutine under
// observation.
//
//go:noinline
func lockOrderProbe(run func()) { run() }

// waitParked waits until the goroutine running lockOrderProbe is blocked in
// sync.Mutex.Lock; false if it finished (done) or ten seconds passed first.
func waitParked(done <-chan struct{}) bool {
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); runtime.Gosched() {
		select {
		case <-done:
			return false
		default:
		}
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			header, _, _ := strings.Cut(g, "\n")
			if strings.Contains(g, "core.lockOrderProbe(") && strings.Contains(header, "[sync.Mutex.Lock") {
				return true
			}
		}
	}
	return false
}

package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/match"
	"repro/internal/match/matchtest"
	"repro/internal/obs"
)

// Arrive at the head of the retire frontier is the block path with n = 1
// folded (arriveHead). These tests hold it to the block path itself: the
// same operations through Arrive on one matcher and through
// BeginBlock(1)/Match(0)/FinishInto on another must be indistinguishable in
// results, statistics, occupancy and trace, the barrier-exit event aside.

// oneDriver feeds single messages to a matcher down one of the two paths.
type oneDriver struct {
	m     *OptimisticMatcher
	block bool // BeginBlock(1)/Match(0)/FinishInto instead of Arrive
}

// arrive delivers env. A non-nil mid runs after the message has taken its
// place in the arrival order (and its watermark snapshot) but before it
// searches: a post issued there is one that raced the arrival.
func (d oneDriver) arrive(env *match.Envelope, mid func()) Result {
	if d.block {
		b := d.m.BeginBlock(1)
		if mid != nil {
			mid()
		}
		var out [1]Result
		b.Match(0, env)
		b.FinishInto(out[:])
		return out[0]
	}
	if mid == nil {
		return d.m.Arrive(env)
	}
	l := launchHead(d.m)
	mid()
	return d.m.arriveHead(env, l)
}

// launchHead is Arrive up to arriveHead, for tests that need to act between
// the two. The matcher must have no block in flight.
func launchHead(m *OptimisticMatcher) launch {
	m.ring.mu.Lock()
	if m.ring.retired+1 != m.ring.next {
		panic("launchHead: a block is in flight")
	}
	l := m.launchLocked(1)
	m.ring.mu.Unlock()
	m.traceLaunch(&l, 1)
	return l
}

// outcome is what one operation reported, in matcher-independent terms.
type outcome struct {
	matched    bool
	msgSeq     uint64
	recvLabel  uint64
	path       Path
	hintErr    bool
	tableFull  bool
	unexpected bool
}

func (d oneDriver) post(op matchtest.Op) outcome {
	r := &match.Recv{Source: op.Src, Tag: op.Tag, Comm: op.Comm}
	env, ok, err := d.m.PostRecv(r)
	o := outcome{matched: ok, recvLabel: r.Label,
		hintErr: errors.Is(err, ErrHintViolation), tableFull: errors.Is(err, ErrTableFull)}
	if ok {
		o.msgSeq = env.Seq
	}
	return o
}

func arrivalOutcome(res Result) outcome {
	o := outcome{matched: !res.Unexpected, unexpected: res.Unexpected, msgSeq: res.Env.Seq, path: res.Path}
	if res.Recv != nil {
		o.recvLabel = res.Recv.Label
	}
	return o
}

// tracedKinds are the events both paths must record identically.
var tracedKinds = map[obs.Kind]bool{
	obs.EvBlockLaunch: true, obs.EvBlockRetire: true, obs.EvBlockSteal: true,
	obs.EvBlockSettle: true, obs.EvUnexpectedPub: true, obs.EvPostMatch: true,
}

// traceOf reduces a sink's record to what does not depend on the clock.
func traceOf(t *testing.T, s *obs.Sink) (evs []obs.Event, barrierExits int) {
	t.Helper()
	if _, dropped := s.Recorded(); dropped != 0 {
		t.Fatalf("%d events overwritten; grow the test ring", dropped)
	}
	for _, e := range s.Events() {
		if e.Kind == obs.EvBlockBarrierExit {
			barrierExits++
		}
		if !tracedKinds[e.Kind] {
			continue
		}
		e.Seq, e.Nano = 0, 0
		if e.Kind == obs.EvBlockRetire {
			e.C = 0 // lifecycle nanoseconds
		}
		evs = append(evs, e)
	}
	return evs, barrierExits
}

// checkLaunchRetirePairs is obscheck's rule: every launch has its retire.
func checkLaunchRetirePairs(t *testing.T, evs []obs.Event) {
	t.Helper()
	open := make(map[uint64]bool)
	for _, e := range evs {
		switch e.Kind {
		case obs.EvBlockLaunch:
			open[e.A] = true
		case obs.EvBlockRetire:
			if !open[e.A] {
				t.Fatalf("block %d retired without a launch", e.A)
			}
			delete(open, e.A)
		}
	}
	if len(open) != 0 {
		t.Fatalf("%d launches without a retire", len(open))
	}
}

func TestArriveOneMatchesBlockOfOne(t *testing.T) {
	type scenario struct {
		name      string
		gen       matchtest.Config
		maxRecvs  int
		hints     map[match.CommID]Hints
		raced     bool // some posts land between an arrival's launch and its search
		partition bool // every message has exactly one outcome (CheckQuiesced)
	}
	wild := matchtest.Config{Sources: 3, Tags: 3, Comms: 3, PSrcWild: 0.25, PTagWild: 0.25}
	scenarios := []scenario{
		{name: "wildcards", gen: wild, maxRecvs: 4096, partition: true},
		{name: "unexpected-then-post", gen: matchtest.Config{Sources: 3, Tags: 3, Comms: 1,
			PSrcWild: 0.2, PTagWild: 0.2, PPost: 0.35, Burstiness: 4}, maxRecvs: 4096, partition: true},
		{name: "table-full", gen: matchtest.Config{Sources: 4, Tags: 4, Comms: 1,
			PSrcWild: 0.2, PTagWild: 0.2, PPost: 0.7}, maxRecvs: 8, partition: true},
		{name: "hints", gen: wild, maxRecvs: 4096, hints: map[match.CommID]Hints{
			1: {AllowOvertaking: true}, 2: {NoAnySource: true}}},
		{name: "raced-posts", gen: wild, maxRecvs: 4096, raced: true, hints: map[match.CommID]Hints{
			1: {AllowOvertaking: true}, 2: {NoAnySource: true}}},
	}
	for si, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			var saw struct{ tableFull, hintErr, overturned, racedStored, relaxed bool }
			for iter := 0; iter < 4; iter++ {
				rng := rand.New(rand.NewSource(int64(100*si + iter)))
				ops := matchtest.Generate(rng, 600, sc.gen)

				var drv [2]oneDriver
				var sinks [2]*obs.Sink
				for i := range drv {
					m := MustNew(Config{Bins: 8, MaxReceives: sc.maxRecvs, BlockSize: 1, EarlyBookingCheck: true})
					sinks[i] = obs.New(obs.Options{TraceEvents: 1 << 13, Rings: 1})
					m.SetObs(sinks[i])
					for comm, h := range sc.hints {
						m.SetCommHints(comm, h)
					}
					drv[i] = oneDriver{m: m, block: i == 1}
				}

				for oi := 0; oi < len(ops); oi++ {
					op := ops[oi]
					var got [2]outcome
					if op.Post {
						for i, d := range drv {
							got[i] = d.post(op)
						}
						saw.tableFull = saw.tableFull || got[0].tableFull
						saw.hintErr = saw.hintErr || got[0].hintErr
					} else {
						// A post that follows an arrival in the scenario races it
						// instead, one time in three.
						racing := sc.raced && oi+1 < len(ops) && ops[oi+1].Post && rng.Intn(3) == 0
						var mids [2]outcome
						for i, d := range drv {
							var mid func()
							if racing {
								mid = func() { mids[i] = d.post(ops[oi+1]) }
							}
							got[i] = arrivalOutcome(d.arrive(&match.Envelope{Source: op.Src, Tag: op.Tag, Comm: op.Comm}, mid))
						}
						if racing {
							oi++
							if mids[0] != mids[1] {
								t.Fatalf("iter %d op %d raced post: Arrive %+v, block %+v", iter, oi, mids[0], mids[1])
							}
							saw.overturned = saw.overturned || got[0].path == PathSlow
							saw.racedStored = saw.racedStored || got[0].unexpected
						}
						saw.relaxed = saw.relaxed || sc.hints[op.Comm].AllowOvertaking
					}
					if got[0] != got[1] {
						t.Fatalf("iter %d op %d (%+v): Arrive %+v, block %+v", iter, oi, op, got[0], got[1])
					}
				}

				a, b := drv[0].m, drv[1].m
				if sa, sb := a.Stats(), b.Stats(); sa != sb {
					t.Fatalf("iter %d EngineStats:\nArrive %+v\nblock  %+v", iter, sa, sb)
				}
				if da, db := a.DepthStats(), b.DepthStats(); da != db {
					t.Fatalf("iter %d DepthStats:\nArrive %+v\nblock  %+v", iter, da, db)
				}
				ea, ta, ma := a.Occupancy()
				eb, tb, mb := b.Occupancy()
				if ea != eb || ta != tb || ma != mb || a.PostedDepth() != b.PostedDepth() || a.UnexpectedDepth() != b.UnexpectedDepth() {
					t.Fatalf("iter %d occupancy: Arrive (%d,%d,%d) posted %d stored %d, block (%d,%d,%d) posted %d stored %d",
						iter, ea, ta, ma, a.PostedDepth(), a.UnexpectedDepth(), eb, tb, mb, b.PostedDepth(), b.UnexpectedDepth())
				}
				for _, m := range []*OptimisticMatcher{a, b} {
					if err := m.Stats().CheckQuiesced(m.DepthStats(), sc.partition); err != nil {
						t.Fatalf("iter %d: %v", iter, err)
					}
				}

				evA, exitsA := traceOf(t, sinks[0])
				evB, exitsB := traceOf(t, sinks[1])
				if !reflect.DeepEqual(evA, evB) {
					for i := 0; i < len(evA) && i < len(evB); i++ {
						if evA[i] != evB[i] {
							t.Fatalf("iter %d event %d: Arrive %+v, block %+v", iter, i, evA[i], evB[i])
						}
					}
					t.Fatalf("iter %d: Arrive recorded %d events, block %d", iter, len(evA), len(evB))
				}
				checkLaunchRetirePairs(t, evA)
				// A relaxed message never enters the barrier on either path.
				blocks, ordered := a.Stats().Blocks, a.Stats().Blocks-a.Stats().Relaxed
				if exitsA != 0 || uint64(exitsB) != ordered {
					t.Fatalf("iter %d barrier exits: Arrive %d (want 0), block %d (want %d)", iter, exitsA, exitsB, ordered)
				}
				if ha, hb := sinks[0].Hist(obs.HistBlockNs).Count, sinks[1].Hist(obs.HistBlockNs).Count; ha != blocks || hb != blocks {
					t.Fatalf("iter %d HistBlockNs count: Arrive %d, block %d, blocks %d", iter, ha, hb, blocks)
				}
			}
			// The scenario must have reached what it is named for.
			switch sc.name {
			case "table-full":
				if !saw.tableFull {
					t.Fatal("no post hit ErrTableFull")
				}
			case "hints":
				if !saw.hintErr || !saw.relaxed {
					t.Fatalf("hint paths not reached: %+v", saw)
				}
			case "raced-posts":
				if !saw.overturned || !saw.racedStored {
					t.Fatalf("raced posts never overturned or never missed: %+v", saw)
				}
			}
		})
	}
}

// TestArriveOneConcurrentGolden runs Arrive callers beside an ArriveBlock
// caller and a poster on a depth-4 matcher. Keys are exact and each belongs
// to one arriving goroutine, so the MPI-correct pairing does not depend on
// the interleaving: the i-th message of a key takes the key's i-th receive,
// whether it met it on arrival or waited in the store. Arrive finds itself
// at the head of the frontier on some calls and behind the ArriveBlock
// caller's blocks on others, so both of its paths run under -race.
func TestArriveOneConcurrentGolden(t *testing.T) {
	const (
		arrivers = 3 // goroutines 0 and 1 call Arrive, 2 calls ArriveBlock
		tags     = 4
		perKey   = 96
		blockN   = 8
	)
	m := MustNew(Config{Bins: 16, MaxReceives: 8192, BlockSize: blockN, InFlightBlocks: 4, EarlyBookingCheck: true})

	var posts []matchtest.Op
	for g := 0; g < arrivers; g++ {
		for tag := 0; tag < tags; tag++ {
			for i := 0; i < perKey; i++ {
				posts = append(posts, matchtest.Op{Post: true, Src: match.Rank(g), Tag: match.Tag(tag)})
			}
		}
	}
	rng := rand.New(rand.NewSource(5))
	rng.Shuffle(len(posts), func(i, j int) { posts[i], posts[j] = posts[j], posts[i] })

	// Message j of goroutine g carries Seq j*arrivers+g+1: unique, and
	// ascending within every key.
	msgs := make([][]*match.Envelope, arrivers)
	for g := range msgs {
		for j := 0; j < tags*perKey; j++ {
			msgs[g] = append(msgs[g], &match.Envelope{Source: match.Rank(g), Tag: match.Tag(rng.Intn(tags)), Seq: uint64(j*arrivers + g + 1)})
		}
	}

	pairs := make([][]match.Pairing, arrivers+1)
	record := func(who int, res Result) {
		if !res.Unexpected {
			pairs[who] = append(pairs[who], match.Pairing{MsgSeq: res.Env.Seq, RecvLabel: res.Recv.Label})
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < arrivers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if g < 2 {
				for _, env := range msgs[g] {
					record(g, m.Arrive(env))
				}
				return
			}
			for rest := msgs[g]; len(rest) > 0; {
				n := min(1+rng.Intn(3*blockN), len(rest))
				for _, res := range m.ArriveBlock(rest[:n]) {
					record(g, res)
				}
				rest = rest[n:]
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, op := range posts {
			r := &match.Recv{Source: op.Src, Tag: op.Tag}
			env, ok, err := m.PostRecv(r)
			if err != nil {
				t.Errorf("PostRecv: %v", err)
				return
			}
			if ok {
				pairs[arrivers] = append(pairs[arrivers], match.Pairing{MsgSeq: env.Seq, RecvLabel: r.Label})
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}

	// Each goroutine drew its tags at random, so a key may have more
	// messages than receives or fewer; the golden model gets the same
	// posts, then the same messages in an order that keeps every key's.
	golden := match.NewListMatcher()
	var want, got []match.Pairing
	for _, op := range posts {
		golden.PostRecv(&match.Recv{Source: op.Src, Tag: op.Tag})
	}
	for j := 0; j < tags*perKey; j++ {
		for g := 0; g < arrivers; g++ {
			e := *msgs[g][j]
			if r, ok := golden.Arrive(&e); ok {
				want = append(want, match.Pairing{MsgSeq: e.Seq, RecvLabel: r.Label})
			}
		}
	}
	for _, p := range pairs {
		got = append(got, p...)
	}
	if diff := matchtest.DiffPairings(want, got); diff != "" {
		t.Fatal(diff)
	}
	if m.PostedDepth() != golden.PostedDepth() || m.UnexpectedDepth() != golden.UnexpectedDepth() {
		t.Fatalf("depths: engine (%d,%d), golden (%d,%d)",
			m.PostedDepth(), m.UnexpectedDepth(), golden.PostedDepth(), golden.UnexpectedDepth())
	}
	if err := m.Stats().CheckQuiesced(m.DepthStats(), false); err != nil {
		t.Fatal(err)
	}
}

// TestArriveOneStealsFromHigherBlock: a block that began after Arrive took
// its sequence provisionally consumes the receive Arrive is about to take.
// Arrive serializes first, so it steals the receive back (and says so), and
// the robbed block settles as unexpected when it retires — the pairing the
// list matcher gives the same two messages in sequence order.
func TestArriveOneStealsFromHigherBlock(t *testing.T) {
	m := MustNew(Config{Bins: 8, MaxReceives: 64, BlockSize: 1, InFlightBlocks: 4, EarlyBookingCheck: true})
	sink := obs.New(obs.Options{TraceEvents: 64, Rings: 1})
	m.SetObs(sink)
	recv := &match.Recv{Source: 1, Tag: 7}
	if _, _, err := m.PostRecv(recv); err != nil {
		t.Fatal(err)
	}

	l := launchHead(m)
	higher := m.BeginBlock(1)
	late := &match.Envelope{Source: 1, Tag: 7}
	if res, final := higher.Match(0, late); final || res.Recv != recv {
		t.Fatalf("higher block: result %+v final=%v, want a provisional hold on the receive", res, final)
	}
	first := &match.Envelope{Source: 1, Tag: 7}
	res := m.arriveHead(first, l)
	var out [1]Result
	higher.FinishInto(out[:])

	if res.Unexpected || res.Recv != recv || res.Path != PathOptimistic {
		t.Fatalf("Arrive: %+v, want the stolen receive", res)
	}
	if !out[0].Unexpected || out[0].Path != PathSlow {
		t.Fatalf("robbed block: %+v, want unexpected after re-derivation", out[0])
	}
	if first.Seq >= late.Seq {
		t.Fatalf("arrival order: Arrive's message has Seq %d, the higher block's %d", first.Seq, late.Seq)
	}
	st := m.Stats()
	if st.Steals != 1 || st.Revalidated != 1 || st.Unexpected != 1 {
		t.Fatalf("stats %+v, want one steal, one revalidation, one unexpected", st)
	}
	if err := st.CheckQuiesced(m.DepthStats(), false); err != nil {
		t.Fatal(err)
	}
	steals := 0
	for _, e := range sink.Events() {
		if e.Kind == obs.EvBlockSteal {
			steals++
			if e.A != l.seq || e.B != l.seq+1 {
				t.Fatalf("steal event %+v, want thief %d victim %d", e, l.seq, l.seq+1)
			}
		}
	}
	if steals != 1 {
		t.Fatalf("%d steal events, want 1", steals)
	}

	golden := match.NewListMatcher()
	golden.PostRecv(&match.Recv{Source: 1, Tag: 7})
	if _, ok := golden.Arrive(&match.Envelope{Source: 1, Tag: 7, Seq: first.Seq}); !ok {
		t.Fatal("golden: first message unmatched")
	}
	if _, ok := golden.Arrive(&match.Envelope{Source: 1, Tag: 7, Seq: late.Seq}); ok {
		t.Fatal("golden: second message matched")
	}
}

// TestArriveFallsBackBehindLowerBlock pins the one condition that sends a
// single message down BeginBlock(1): a lower-sequence block still in flight.
func TestArriveFallsBackBehindLowerBlock(t *testing.T) {
	m := MustNew(Config{Bins: 8, MaxReceives: 64, BlockSize: 2, InFlightBlocks: 2, EarlyBookingCheck: true})
	sink := obs.New(obs.Options{TraceEvents: 64, Rings: 1})
	m.SetObs(sink)
	for tag := 0; tag < 2; tag++ {
		if _, _, err := m.PostRecv(&match.Recv{Source: 1, Tag: match.Tag(tag)}); err != nil {
			t.Fatal(err)
		}
	}

	lower := m.BeginBlock(1)
	done := make(chan Result)
	go func() { done <- m.Arrive(&match.Envelope{Source: 1, Tag: 1}) }()
	for m.Stats().Blocks < 2 { // until Arrive has taken its sequence
		runtime.Gosched()
	}
	// Arrive cannot retire before the lower block does.
	lower.Match(0, &match.Envelope{Source: 1, Tag: 0})
	select {
	case res := <-done:
		t.Fatalf("Arrive returned %+v with a lower block in flight", res)
	default:
	}
	lower.Finish()
	if res := <-done; res.Unexpected || res.Recv.Tag != 1 {
		t.Fatalf("Arrive: %+v", res)
	}
	// A block-path arrival leaves a barrier-exit record; the folded path
	// never does. One of each, in either order of launch.
	head := m.Arrive(&match.Envelope{Source: 1, Tag: 9})
	if !head.Unexpected {
		t.Fatalf("head Arrive: %+v", head)
	}
	exits := 0
	for _, e := range sink.Events() {
		if e.Kind == obs.EvBlockBarrierExit {
			exits++
		}
	}
	if want := 2; exits != want { // the lower block's and the fallen-back Arrive's
		t.Fatalf("%d barrier exits, want %d: %s", exits, want, fmt.Sprint(sink.Events()))
	}
	if err := m.Stats().CheckQuiesced(m.DepthStats(), true); err != nil {
		t.Fatal(err)
	}
}

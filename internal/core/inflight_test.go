package core_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/match"
	"repro/internal/match/matchtest"
)

// runPipelined drives a scenario through the engine like runBlocks, but
// flushes pending arrivals through ArrivePipelined in batches of up to
// depth×blockN messages, so up to depth matching blocks are genuinely in
// flight at once.
func runPipelined(t *testing.T, m *core.OptimisticMatcher, ops []matchtest.Op, blockN, depth int) (pairings []match.Pairing, posted, unexpected int) {
	t.Helper()
	return drive(t, m, ops, blockN*depth, m.ArrivePipelined)
}

// TestInFlightDepthEquivalence is the central multi-block correctness
// property: with K blocks in flight the settled pairing must equal both the
// sequential golden model's and the depth-1 engine's, for random scenarios
// across wildcard mixes, conflict storms, and flood shapes. Retirement-order
// serialization (DESIGN.md §9) is exactly the claim under test.
func TestInFlightDepthEquivalence(t *testing.T) {
	cfgs := []matchtest.Config{
		matchtest.DefaultConfig(),
		{Sources: 2, Tags: 2, Comms: 1, PSrcWild: 0.4, PTagWild: 0.4},
		{Sources: 1, Tags: 1, Comms: 1},                               // single key: pure conflict storm
		{Sources: 1, Tags: 1, Comms: 1, PSrcWild: 0.5, PTagWild: 0.5}, // conflicts + wildcards
		{Sources: 4, Tags: 2, Comms: 1, Burstiness: 8},                // compatible sequences
		{Sources: 3, Tags: 3, Comms: 1, PPost: 0.25, Burstiness: 4},   // arrival floods
		{Sources: 3, Tags: 3, Comms: 1, PPost: 0.75, Burstiness: 4},   // receive floods
	}
	const blockN = 8
	for ci, sc := range cfgs {
		for _, depth := range []int{2, 4, 8} {
			rng := rand.New(rand.NewSource(int64(1000*ci + depth)))
			for iter := 0; iter < 4; iter++ {
				ops := matchtest.Generate(rng, 400, sc)
				gold, gp, gu := matchtest.Run(match.NewListMatcher(), ops)

				one := core.MustNew(engineConfig(64, blockN, nil))
				ref, rp, ru := runPipelined(t, one, ops, blockN, 1)
				if diff := matchtest.DiffPairings(gold, ref); diff != "" {
					t.Fatalf("scenario %d depth 1 iter %d vs golden: %s", ci, iter, diff)
				}

				m := core.MustNew(engineConfig(64, blockN, func(c *core.Config) {
					c.InFlightBlocks = depth
				}))
				got, pp, pu := runPipelined(t, m, ops, blockN, depth)
				if diff := matchtest.DiffPairings(gold, got); diff != "" {
					t.Fatalf("scenario %d depth %d iter %d vs golden: %s", ci, depth, iter, diff)
				}
				if diff := matchtest.DiffPairings(ref, got); diff != "" {
					t.Fatalf("scenario %d depth %d iter %d vs depth 1: %s", ci, depth, iter, diff)
				}
				if gp != pp || gu != pu || rp != pp || ru != pu {
					t.Fatalf("scenario %d depth %d iter %d: depths golden (%d,%d) depth-1 (%d,%d) engine (%d,%d)",
						ci, depth, iter, gp, gu, rp, ru, pp, pu)
				}
			}
		}
	}
}

// TestInFlightDepthOneIsSerial: at InFlightBlocks=1 the ring must reproduce
// the original serial stream bit for bit — ArrivePipelined and ArriveBlock
// give identical pairings and path statistics on the same scenario.
func TestInFlightDepthOneIsSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	ops := matchtest.Generate(rng, 500, matchtest.DefaultConfig())

	a := core.MustNew(engineConfig(64, 8, nil))
	pa, ppa, pua := runBlocks(t, a, ops, 8)

	b := core.MustNew(engineConfig(64, 8, nil))
	pb, ppb, pub := runPipelined(t, b, ops, 8, 1)

	if diff := matchtest.DiffPairings(pa, pb); diff != "" {
		t.Fatalf("depth-1 pipelined diverges from serial: %s", diff)
	}
	if ppa != ppb || pua != pub {
		t.Fatalf("depths: serial (%d,%d) pipelined (%d,%d)", ppa, pua, ppb, pub)
	}
	// Path-split counters (optimistic/conflict/fast/slow) vary with thread
	// scheduling even between two serial runs; the deterministic outcome
	// counters must agree exactly, and depth 1 must never re-derive.
	sa, sb := a.Stats(), b.Stats()
	if sa.Blocks != sb.Blocks || sa.Messages != sb.Messages ||
		sa.Unexpected != sb.Unexpected || sa.LazyReaped != sb.LazyReaped ||
		sa.TableFull != sb.TableFull {
		t.Fatalf("outcome stats diverge:\nserial    %+v\npipelined %+v", sa, sb)
	}
	if sb.Revalidated != 0 {
		t.Fatalf("depth-1 pipelined revalidated %d results; serial mode must never re-derive", sb.Revalidated)
	}
}

// TestPostRecvConcurrentWithBlocksStress runs posts truly concurrently with
// a depth-4 stream of in-flight arrival blocks, with lock-free observers
// hammering Occupancy and Stats, and checks the serializability invariants
// that survive nondeterministic interleaving:
//
//   - every receive is matched at most once;
//   - message/receive conservation holds after a final drain;
//   - within each exact key, pairings are order-isomorphic (the i-th
//     matched message of the key pairs with the i-th matched receive —
//     C1/C2 restricted to one key, which no legal interleaving may bend).
//
// Run under -race this doubles as the PostRecv-vs-block data-race probe.
// The descriptor table starts empty and posts outnumber arrivals by 1024,
// so it grows by at least 16 chunks while in-flight blocks resolve slot
// numbers through table.get — the race a plain [][]descriptor directory
// loses.
func TestPostRecvConcurrentWithBlocksStress(t *testing.T) {
	for _, depth := range []int{4, core.MaxInFlightBlocks} {
		t.Run(fmt.Sprintf("K=%d", depth), func(t *testing.T) { stressPostsAgainstBlocks(t, depth) })
	}
}

func stressPostsAgainstBlocks(t *testing.T, depth int) {
	const (
		blockN = 8
		nKeys  = 13
		nArr   = 2048
		nPost  = 3072
	)
	m := core.MustNew(engineConfig(64, blockN, func(c *core.Config) {
		c.InFlightBlocks = depth
		c.MaxReceives = 4096
	}))
	keyOf := func(i int) (match.Rank, match.Tag) {
		k := i % nKeys
		return match.Rank(k % 4), match.Tag(k / 4)
	}

	recvs := make([]*match.Recv, nPost)
	postEnv := make([]*match.Envelope, nPost) // env matched at post time, if any
	var pwg sync.WaitGroup
	pwg.Add(1)
	go func() {
		defer pwg.Done()
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < nPost; i++ {
			src, tag := keyOf(i)
			r := &match.Recv{Source: src, Tag: tag}
			recvs[i] = r
			env, ok, err := m.PostRecv(r)
			if err != nil {
				t.Errorf("PostRecv %d: %v", i, err)
				return
			}
			if ok {
				postEnv[i] = env
			}
			if rng.Intn(4) == 0 {
				runtime.Gosched()
			}
		}
	}()

	stop := make(chan struct{})
	var owg sync.WaitGroup
	for o := 0; o < 2; o++ {
		owg.Add(1)
		go func() {
			defer owg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				m.Occupancy()
				m.Stats()
				m.PostedDepth()
				m.UnexpectedDepth()
				runtime.Gosched()
			}
		}()
	}

	var results []core.Result
	for i := 0; i < nArr; i += depth * blockN {
		n := depth * blockN
		if i+n > nArr {
			n = nArr - i
		}
		batch := make([]*match.Envelope, n)
		for j := range batch {
			src, tag := keyOf(i + j)
			batch[j] = &match.Envelope{Source: src, Tag: tag, Seq: uint64(i+j) + 1}
		}
		results = append(results, m.ArrivePipelined(batch)...)
	}
	pwg.Wait()
	close(stop)
	owg.Wait()
	if t.Failed() {
		return
	}

	// Collect all pairings: arrival-side matches plus post-time store hits.
	type pair struct{ seq, label uint64 }
	byKey := make(map[[2]int][]pair)
	matchedRecvs := make(map[*match.Recv]uint64)
	matched := 0
	for _, res := range results {
		if res.Unexpected {
			continue
		}
		matched++
		if prev, dup := matchedRecvs[res.Recv]; dup {
			t.Fatalf("receive label %d matched twice (seqs %d and %d)", res.Recv.Label, prev, res.Env.Seq)
		}
		matchedRecvs[res.Recv] = res.Env.Seq
		k := [2]int{int(res.Env.Source), int(res.Env.Tag)}
		byKey[k] = append(byKey[k], pair{res.Env.Seq, res.Recv.Label})
	}
	for i, env := range postEnv {
		if env == nil {
			continue
		}
		matched++
		r := recvs[i]
		if prev, dup := matchedRecvs[r]; dup {
			t.Fatalf("receive label %d matched twice (seqs %d and %d)", r.Label, prev, env.Seq)
		}
		matchedRecvs[r] = env.Seq
		k := [2]int{int(env.Source), int(env.Tag)}
		byKey[k] = append(byKey[k], pair{env.Seq, r.Label})
	}

	// Conservation: every arrival either matched or is in the store; every
	// receive either matched or is still posted.
	if got := matched + m.UnexpectedDepth(); got != nArr {
		t.Fatalf("message conservation: matched %d + stored %d = %d, want %d",
			matched, m.UnexpectedDepth(), got, nArr)
	}
	if got := matched + m.PostedDepth(); got != nPost {
		t.Fatalf("receive conservation: matched %d + posted %d = %d, want %d",
			matched, m.PostedDepth(), got, nPost)
	}

	// Per-key order isomorphism: sorted by message seq, labels must ascend.
	for k, ps := range byKey {
		sort.Slice(ps, func(i, j int) bool { return ps[i].seq < ps[j].seq })
		for i := 1; i < len(ps); i++ {
			if ps[i].label <= ps[i-1].label {
				t.Fatalf("key %v: message order %d<%d but label order %d>=%d",
					k, ps[i-1].seq, ps[i].seq, ps[i-1].label, ps[i].label)
			}
		}
	}

	// Drain the store: leftovers must come out in per-key arrival order.
	lastSeq := make(map[[2]int]uint64)
	for m.UnexpectedDepth() > 0 {
		drained := false
		for k := 0; k < nKeys; k++ {
			src, tag := keyOf(k)
			env, ok, err := m.PostRecv(&match.Recv{Source: src, Tag: tag})
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				continue
			}
			drained = true
			kk := [2]int{int(src), int(tag)}
			if env.Seq <= lastSeq[kk] {
				t.Fatalf("key %v drained out of order: %d after %d", kk, env.Seq, lastSeq[kk])
			}
			lastSeq[kk] = env.Seq
		}
		if !drained {
			t.Fatalf("store stuck with %d messages no key can drain", m.UnexpectedDepth())
		}
	}
}

// BenchmarkInFlightArrive measures matcher throughput as the in-flight
// window deepens: distinct-key messages against pre-posted receives, the
// Figure 8 NC shape. Depth 1 is the serial baseline the paper's stream of
// blocks imposes; deeper windows overlap whole blocks.
func BenchmarkInFlightArrive(b *testing.B) {
	const blockN = 8
	for _, depth := range []int{1, 2, 4, 8} {
		b.Run(map[int]string{1: "depth=1", 2: "depth=2", 4: "depth=4", 8: "depth=8"}[depth], func(b *testing.B) {
			cfg := core.Config{
				Bins: 2048, MaxReceives: 8192, BlockSize: blockN,
				InFlightBlocks:    depth,
				EarlyBookingCheck: true,
			}
			m := core.MustNew(cfg)
			const span = 512 // messages per inner round, <= MaxReceives
			envs := make([]*match.Envelope, span)
			recvs := make([]match.Recv, span)
			for i := range envs {
				envs[i] = &match.Envelope{Source: match.Rank(i % 64), Tag: match.Tag(i / 64)}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for done := 0; done < b.N; {
				n := span
				if b.N-done < n {
					n = b.N - done
				}
				for i := 0; i < n; i++ {
					r := &recvs[i]
					*r = match.Recv{Source: envs[i].Source, Tag: envs[i].Tag}
					if _, _, err := m.PostRecv(r); err != nil {
						b.Fatal(err)
					}
				}
				for i := 0; i < n; i++ {
					envs[i].Seq = 0 // reassigned by the block in arrival order
				}
				m.ArrivePipelined(envs[:n])
				done += n
			}
		})
	}
}

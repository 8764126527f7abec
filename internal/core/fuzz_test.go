package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/match"
	"repro/internal/match/matchtest"
)

// FuzzMatcherDifferential decodes bytes into a sequence of posts, single
// arrivals and arrival batches and holds the optimistic matcher to the list
// matcher on it (ROADMAP item 2, core-only scope: core has no cancel, so
// none is decoded). Three engines with K = 1, 4 and 8 blocks in flight take
// the sequence as written — Arrive for a single message, ArriveBlock (K = 1)
// or ArrivePipelined (K > 1, so that a batch really has K blocks in flight)
// for a batch — and must report the list matcher's outcome for every post
// and message and its two queue depths after every step. A fourth and a
// fifth engine take every message singly, one through Arrive and one through
// BeginBlock(1)/Match(0)/FinishInto, and must agree outcome for outcome,
// path included, and counter for counter. All five must satisfy
// CheckQuiesced at the end.
//
// What it does not reach: interleavings between blocks and against posts.
// The steps run one after another, so no post races a block; the schedule
// inside a batch is the Go scheduler's.
func FuzzMatcherDifferential(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		runDifferential(t, decodeFuzz(data))
	})
}

// Communicator 1 waives ordering and communicator 2 promises no AnySource
// receive; communicator 0 is plain.
const (
	fuzzRelaxedComm  match.CommID = 1
	fuzzNoAnySrcComm match.CommID = 2
)

const (
	fuzzBlockSize = 4
	fuzzMaxBatch  = 33 // more than 8 blocks of 4: K = 8 fills its ring
	fuzzMaxBytes  = 1 << 10
)

// fuzzMsg is one message: its key, and whether its header carried the
// sender's hashes (§IV-D).
type fuzzMsg struct {
	matchtest.Op
	inline bool
}

// fuzzStep is one step of a sequence: a post, or the arrival of msgs (one
// message is an Arrive call, more are one batch).
type fuzzStep struct {
	post matchtest.Op
	msgs []fuzzMsg
}

// Wire form, one head byte per step. head&3 selects the step: 1 is a single
// arrival and 2 a batch of 2 + (head>>2)%32 messages, each followed by one
// key byte per message; 0 and 3 are a post, one key byte, with head bit 2
// for AnySource and bit 3 for AnyTag. A key byte is source (bits 0-1), tag
// (bits 2-3), communicator (bits 4-5, modulo 3) and the inline-hash flag
// (bit 6). Input past fuzzMaxBytes is ignored.
//
// Matching on the relaxed communicator is any-order, so two of its messages
// in flight together have no unique pairing: a batch keeps its first message
// on that communicator and moves the others to communicator 0.
func decodeFuzz(data []byte) []fuzzStep {
	if len(data) > fuzzMaxBytes {
		data = data[:fuzzMaxBytes]
	}
	key := func(k byte) fuzzMsg {
		return fuzzMsg{Op: matchtest.Op{Src: match.Rank(k & 3), Tag: match.Tag(k >> 2 & 3),
			Comm: match.CommID(k >> 4 & 3 % 3)}, inline: k&0x40 != 0}
	}
	var steps []fuzzStep
	for len(data) >= 2 {
		head := data[0]
		data = data[1:]
		switch head & 3 {
		case 1, 2:
			n := 1
			if head&3 == 2 {
				n = min(2+int(head>>2)%(fuzzMaxBatch-1), len(data))
			}
			st := fuzzStep{msgs: make([]fuzzMsg, n)}
			relaxed := false
			for i := range st.msgs {
				m := key(data[i])
				if m.Comm == fuzzRelaxedComm {
					if relaxed {
						m.Comm = 0
					}
					relaxed = true
				}
				st.msgs[i] = m
			}
			data = data[n:]
			steps = append(steps, st)
		default:
			p := key(data[0]).Op
			data = data[1:]
			p.Post = true
			if head&4 != 0 {
				p.Src = match.AnySource
			}
			if head&8 != 0 {
				p.Tag = match.AnyTag
			}
			steps = append(steps, fuzzStep{post: p})
		}
	}
	return steps
}

// encodeFuzz writes a scenario in the wire form: consecutive arrivals gather
// into batches of up to batch messages (1: every arrival single).
func encodeFuzz(ops []matchtest.Op, batch int) []byte {
	key := func(op matchtest.Op) byte {
		return byte(op.Src)&3 | byte(op.Tag)&3<<2 | byte(op.Comm%3)<<4
	}
	var out []byte
	for i := 0; i < len(ops); {
		op := ops[i]
		if op.Post {
			var head byte
			if op.Src == match.AnySource {
				head |= 4
			}
			if op.Tag == match.AnyTag {
				head |= 8
			}
			out = append(out, head, key(op))
			i++
			continue
		}
		n := 0
		for i+n < len(ops) && !ops[i+n].Post && n < batch {
			n++
		}
		if n == 1 {
			out = append(out, 1)
		} else {
			out = append(out, byte(n-2)<<2|2)
		}
		for _, m := range ops[i : i+n] {
			k := key(m)
			if (i+len(out))%3 == 0 {
				k |= 0x40 // a third of the messages carry inline hashes
			}
			out = append(out, k)
		}
		i += n
	}
	return out
}

// fuzzSeeds is the corpus every run starts from: the sequences that have
// diverged before, and one per golden scenario of the engine tests.
func fuzzSeeds() [][]byte {
	same := func(n int, post bool) []matchtest.Op {
		ops := make([]matchtest.Op, n)
		for i := range ops {
			ops[i] = matchtest.Op{Post: post, Src: 1, Tag: 3}
		}
		return ops
	}
	cat := func(parts ...[]matchtest.Op) (all []matchtest.Op) {
		for _, p := range parts {
			all = append(all, p...)
		}
		return all
	}
	seeds := [][]byte{
		// The eager-removal sequence (PR 15): a run of compatible receives
		// and blocks that all book its head, so every thread but the first
		// shifts along the chain — over entries earlier blocks consumed, and
		// the last block past the end of the run.
		encodeFuzz(cat(same(20, true), same(8, false), same(6, true), same(8, false), same(16, false)), 8),
		// The fastShift mis-pairing: positions counted along a chain that
		// holds an interloper and a wildcard receive between two runs.
		encodeFuzz(cat(same(2, true), []matchtest.Op{{Post: true, Src: 2, Tag: 1}, {Post: true, Src: match.AnySource, Tag: 3}},
			same(3, true), same(8, false), same(2, true), same(4, false)), 8),
	}
	// Store-then-post of the same twelve keys three times over, so every
	// store entry and list node is reused at least twice: a receive takes
	// the first message mid-way and the second half lands on a non-empty
	// store, then eleven receives of all four classes drain it (each entry
	// leaves the three chains it was not found on too).
	msgs := func(from, to int) (ops []matchtest.Op) {
		for i := from; i < to; i++ {
			ops = append(ops, matchtest.Op{Src: match.Rank(i % 4), Tag: match.Tag(i / 4)})
		}
		return ops
	}
	const anyS, anyT = match.AnySource, match.AnyTag
	round := cat(msgs(0, 6), []matchtest.Op{{Post: true}}, msgs(6, 12), []matchtest.Op{
		{Post: true, Src: 3, Tag: 2}, {Post: true, Src: 2, Tag: 2}, {Post: true, Src: 1, Tag: 2},
		{Post: true, Src: anyS, Tag: 1}, {Post: true, Src: anyS, Tag: 1}, {Post: true, Src: anyS, Tag: 1},
		{Post: true, Src: 1, Tag: anyT}, {Post: true, Src: 2, Tag: anyT}, {Post: true, Src: 3, Tag: anyT},
		{Post: true, Src: anyS, Tag: anyT}, {Post: true, Src: anyS, Tag: anyT}})
	for _, batch := range []int{fuzzMaxBatch, 4, 1} {
		seeds = append(seeds, encodeFuzz(cat(round, round, round), batch))
	}
	// One sequence per golden scenario (TestParallelBlocksMatchGolden,
	// TestInFlightDepthEquivalence, TestArriveOneMatchesBlockOfOne), in
	// batches that fill the K = 8 ring and as single arrivals.
	for i, sc := range []matchtest.Config{
		matchtest.DefaultConfig(),
		{Sources: 2, Tags: 2, Comms: 1, PSrcWild: 0.4, PTagWild: 0.4},
		{Sources: 1, Tags: 1, Comms: 1},
		{Sources: 1, Tags: 1, Comms: 1, PSrcWild: 0.5, PTagWild: 0.5},
		{Sources: 4, Tags: 2, Comms: 1, Burstiness: 8},
		{Sources: 4, Tags: 4, Comms: 2},
		{Sources: 3, Tags: 3, Comms: 1, PPost: 0.25, Burstiness: 4},
		{Sources: 3, Tags: 3, Comms: 1, PPost: 0.75, Burstiness: 4},
		{Sources: 3, Tags: 3, Comms: 3, PSrcWild: 0.25, PTagWild: 0.25},
		{Sources: 3, Tags: 3, Comms: 1, PSrcWild: 0.2, PTagWild: 0.2, PPost: 0.35, Burstiness: 4},
	} {
		ops := matchtest.Generate(rand.New(rand.NewSource(int64(i))), 300, sc)
		seeds = append(seeds, encodeFuzz(ops, fuzzMaxBatch), encodeFuzz(ops, 1))
	}
	return seeds
}

// fuzzEngine is one optimistic matcher under test and how it takes a batch.
type fuzzEngine struct {
	name  string
	m     *OptimisticMatcher
	batch func([]*match.Envelope) []Result
}

func newFuzzMatcher(blockSize, inflight int) *OptimisticMatcher {
	m := MustNew(Config{Bins: 8, MaxReceives: 4096, BlockSize: blockSize, InFlightBlocks: inflight, EarlyBookingCheck: true})
	m.SetCommHints(fuzzRelaxedComm, Hints{AllowOvertaking: true})
	m.SetCommHints(fuzzNoAnySrcComm, Hints{NoAnySource: true})
	return m
}

func (m fuzzMsg) envelope(seq uint64) *match.Envelope {
	env := &match.Envelope{Source: m.Src, Tag: m.Tag, Comm: m.Comm, Seq: seq}
	if m.inline {
		env.SetInline(match.ComputeInlineHashes(env))
	}
	return env
}

func runDifferential(t *testing.T, steps []fuzzStep) {
	golden := match.NewListMatcher()
	var engines []fuzzEngine
	for _, k := range []int{1, 4, 8} {
		m := newFuzzMatcher(fuzzBlockSize, k)
		e := fuzzEngine{name: fmt.Sprintf("K=%d", k), m: m, batch: m.ArrivePipelined}
		if k == 1 {
			e.batch = m.ArriveBlock
		}
		engines = append(engines, e)
	}
	single := [2]oneDriver{{m: newFuzzMatcher(1, 1)}, {m: newFuzzMatcher(1, 1), block: true}}
	all := append(engines[:len(engines):len(engines)],
		fuzzEngine{name: "Arrive", m: single[0].m}, fuzzEngine{name: "block-of-one", m: single[1].m})

	var seq uint64
	for si, st := range steps {
		if st.msgs == nil {
			// A post the no_any_source communicator must refuse never reaches
			// the list matcher, which knows no hints.
			p := st.post
			want := outcome{hintErr: p.Src == match.AnySource && p.Comm == fuzzNoAnySrcComm}
			if !want.hintErr {
				r := &match.Recv{Source: p.Src, Tag: p.Tag, Comm: p.Comm}
				env, ok := golden.PostRecv(r)
				want = outcome{matched: ok, recvLabel: r.Label}
				if ok {
					want.msgSeq = env.Seq
				}
			}
			for _, e := range all {
				if got := (oneDriver{m: e.m}).post(p); got != want {
					t.Fatalf("step %d %s: post %+v: %+v, list matcher %+v", si, e.name, p, got, want)
				}
			}
		} else {
			// The list matcher first: one verdict per message, in order.
			want := make([]outcome, len(st.msgs))
			for i, msg := range st.msgs {
				env := msg.envelope(seq + uint64(i) + 1)
				r, ok := golden.Arrive(env)
				want[i] = outcome{matched: ok, unexpected: !ok, msgSeq: env.Seq}
				if ok {
					want[i].recvLabel = r.Label
				}
			}
			for _, e := range engines {
				envs := make([]*match.Envelope, len(st.msgs))
				for i, msg := range st.msgs {
					envs[i] = msg.envelope(seq + uint64(i) + 1)
				}
				var results []Result
				if len(envs) == 1 {
					results = []Result{e.m.Arrive(envs[0])}
				} else {
					results = e.batch(envs)
				}
				for i, res := range results {
					got := arrivalOutcome(res)
					got.path = 0 // the schedule inside a batch decides the path
					if got != want[i] {
						t.Fatalf("step %d %s: message %d of %d (%+v): %+v, list matcher %+v",
							si, e.name, i, len(envs), st.msgs[i], got, want[i])
					}
				}
			}
			for i, msg := range st.msgs {
				a := arrivalOutcome(single[0].arrive(msg.envelope(seq+uint64(i)+1), nil))
				b := arrivalOutcome(single[1].arrive(msg.envelope(seq+uint64(i)+1), nil))
				if a != b {
					t.Fatalf("step %d message %d (%+v): Arrive %+v, block-of-one %+v", si, i, msg, a, b)
				}
				if a.path = 0; a != want[i] {
					t.Fatalf("step %d message %d (%+v): Arrive %+v, list matcher %+v", si, i, msg, a, want[i])
				}
			}
			seq += uint64(len(st.msgs))
		}
		for _, e := range all {
			if p, u := e.m.PostedDepth(), e.m.UnexpectedDepth(); p != golden.PostedDepth() || u != golden.UnexpectedDepth() {
				t.Fatalf("step %d %s: depths (%d posted, %d stored), list matcher (%d, %d)",
					si, e.name, p, u, golden.PostedDepth(), golden.UnexpectedDepth())
			}
			checkStoreInvariants(t, e.m.unexpected)
		}
	}

	for _, e := range engines {
		if err := e.m.Stats().CheckQuiesced(e.m.DepthStats(), false); err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
	}
	a, b := single[0].m, single[1].m
	if sa, sb := a.Stats(), b.Stats(); sa != sb {
		t.Fatalf("EngineStats:\nArrive       %+v\nblock-of-one %+v", sa, sb)
	}
	if da, db := a.DepthStats(), b.DepthStats(); da != db {
		t.Fatalf("DepthStats:\nArrive       %+v\nblock-of-one %+v", da, db)
	}
	if err := a.Stats().CheckQuiesced(a.DepthStats(), false); err != nil {
		t.Fatalf("Arrive: %v", err)
	}
}

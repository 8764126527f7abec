package dpa

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/match"
	"repro/internal/rdma"
)

// countStacks is the number of live goroutines whose stack names fn.
func countStacks(fn string) int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), fn+"(")
}

// TestPipelineRunnerCensus pins who executes blocks: at depth 1 the
// formation loop runs every block itself and no runner goroutine exists,
// while it drains bursts as well as when idle; at depth 4 there are exactly
// four runners beside it.
func TestPipelineRunnerCensus(t *testing.T) {
	const runner, former = "dpa.(*Pipeline).runner", "dpa.(*Pipeline).run"
	for _, depth := range []int{1, 4} {
		t.Run(fmt.Sprintf("depth=%d", depth), func(t *testing.T) {
			acc := MustNew(Config{Threads: 8})
			defer acc.Close()
			matcher := newMatcher(core.Config{Bins: 64, MaxReceives: 4096, BlockSize: 8,
				InFlightBlocks: depth, EarlyBookingCheck: true})
			cq := rdma.NewCQ()
			p := NewPipeline(acc, matcher, cq)
			p.Decode = func(c rdma.Completion, env *match.Envelope) *match.Envelope {
				env.Source, env.Tag = 1, 5
				return env
			}
			// Each burst's first handler counts the goroutines while its
			// block is in flight.
			var mu sync.Mutex
			var during []int
			p.Handle = func(tid int, res core.Result, c rdma.Completion) {
				if c.Imm == 1 {
					n := countStacks(runner)
					mu.Lock()
					during = append(during, n)
					mu.Unlock()
				}
			}
			handled := countHandled(p)
			p.Start()
			want := 0
			if depth > 1 {
				want = depth
			}
			deadline := time.Now().Add(5 * time.Second)
			for countStacks(former) != 1 || countStacks(runner) != want {
				if time.Now().After(deadline) {
					t.Fatalf("started: %d formation loops and %d runners, want 1 and %d",
						countStacks(former), countStacks(runner), want)
				}
				runtime.Gosched()
			}
			const bursts, width = 20, 24
			for b := 0; b < bursts; b++ {
				for i := 0; i < width; i++ {
					if _, _, err := matcher.PostRecv(&match.Recv{Source: 1, Tag: 5}); err != nil {
						t.Fatal(err)
					}
				}
				for i := 0; i < width; i++ {
					cq.Push(rdma.Completion{Op: rdma.OpRecv, Imm: uint32(i + 1)})
				}
				for handled.Load() < uint64((b+1)*width) {
					runtime.Gosched()
				}
			}
			if n := countStacks(runner); n != want {
				t.Fatalf("after %d bursts: %d runner goroutines, want %d", bursts, n, want)
			}
			p.Stop()
			if len(during) == 0 {
				t.Fatal("no burst reached its first handler")
			}
			for i, n := range during {
				if n != want {
					t.Fatalf("burst %d: %d runner goroutines while its block ran, want %d", i, n, want)
				}
			}
			// A runner has returned once Stop does, but may not have exited.
			for deadline := time.Now().Add(2 * time.Second); countStacks(runner) != 0; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("Stop left %d runner goroutines", countStacks(runner))
				}
			}
		})
	}
}

// TestWindowEnvelopesEscape sends bursts in which a seeded subset of the
// messages arrives before its receive is posted. A matched message is
// delivered from its window's envelope, which its next block reuses; an
// unexpected one escapes into the store with a stabilized payload and
// leaves its slot. Every payload and pairing must come out as sent, though
// each bounce buffer is scribbled over as soon as its handler returns, and
// no envelope that escaped may be in a window slot afterwards.
//
// The test keeps every escaped envelope rather than putting it back into
// the pool, so one can reach a slot again only if its slot kept it. That
// shows deterministically: a slot is decoded into only after the block
// that last used it has retired, so Decode sees such an envelope at the
// slot's next use, and the scan after Stop sees it in a slot never used
// again.
func TestWindowEnvelopesEscape(t *testing.T) {
	for _, depth := range []int{1, 4} {
		t.Run(fmt.Sprintf("depth=%d", depth), func(t *testing.T) {
			acc := MustNew(Config{Threads: 8})
			defer acc.Close()
			matcher := newMatcher(core.Config{Bins: 64, MaxReceives: 4096, BlockSize: 8,
				InFlightBlocks: depth, EarlyBookingCheck: true})
			matcher.SetUnexpectedHook((*match.Envelope).Stabilize)
			cq := rdma.NewCQ()
			p := NewPipeline(acc, matcher, cq)
			var mu sync.Mutex
			stored := make(map[*match.Envelope]uint32)  // what the store holds, by tag
			escaped := make(map[*match.Envelope]uint32) // every envelope that escaped, by tag
			p.Decode = func(c rdma.Completion, env *match.Envelope) *match.Envelope {
				if env.Source != 0 || env.Tag != 0 || env.Data != nil || env.Seq != 0 {
					t.Errorf("Decode was handed a used envelope: %v", env)
				}
				mu.Lock()
				tag, gone := escaped[env]
				mu.Unlock()
				if gone {
					t.Errorf("message %d's envelope escaped but was handed to Decode again", tag)
				}
				env.Source, env.Tag = 1, match.Tag(c.Imm)
				env.Data, env.Size = c.Data, len(c.Data)
				return env
			}
			payload := func(tag uint32) []byte {
				return bytes.Repeat([]byte{byte(tag), byte(tag >> 8)}, 1+int(tag%13))
			}
			p.Handle = func(tid int, res core.Result, c rdma.Completion) {
				tag := c.Imm
				if res.Unexpected {
					mu.Lock()
					stored[res.Env] = tag
					escaped[res.Env] = tag
					mu.Unlock()
				} else {
					r := res.Recv
					if r.Tag != match.Tag(tag) || res.Env.Tag != r.Tag || res.Env.Source != 1 {
						t.Errorf("message tag %d paired with receive (%d,%d), envelope (%d,%d)",
							tag, r.Source, r.Tag, res.Env.Source, res.Env.Tag)
					}
					r.Buffer = append(r.Buffer[:0], res.Env.Data...)
				}
				for i := range c.Data { // the bounce buffer is reposted
					c.Data[i] = 0xee
				}
			}
			handled := countHandled(p)
			p.Start()

			rng := rand.New(rand.NewSource(int64(depth)))
			const rounds, width = 40, 20
			sent := 0
			for round := 0; round < rounds; round++ {
				tags := make([]uint32, width)
				recvs := make([]*match.Recv, width)
				late := make([]bool, width)
				for i := range tags {
					tags[i] = uint32(round*width + i + 1)
					recvs[i] = &match.Recv{Source: 1, Tag: match.Tag(tags[i]), Buffer: make([]byte, 0, 32)}
					if late[i] = rng.Intn(3) == 0; late[i] {
						continue
					}
					if _, ok, err := matcher.PostRecv(recvs[i]); err != nil || ok {
						t.Fatalf("posting receive %d: matched %v, err %v", tags[i], ok, err)
					}
				}
				for _, tag := range tags {
					cq.Push(rdma.Completion{Op: rdma.OpRecv, Imm: tag, Data: payload(tag)})
				}
				sent += width
				for handled.Load() < uint64(sent) {
					runtime.Gosched()
				}
				for i := range tags {
					if !late[i] {
						if !bytes.Equal(recvs[i].Buffer, payload(tags[i])) {
							t.Fatalf("matched message %d delivered %x, sent %x", tags[i], recvs[i].Buffer, payload(tags[i]))
						}
						continue
					}
					env, ok, err := matcher.PostRecv(recvs[i])
					if err != nil || !ok {
						t.Fatalf("late receive %d: matched %v, err %v", tags[i], ok, err)
					}
					mu.Lock()
					tag, had := stored[env]
					delete(stored, env)
					mu.Unlock()
					if !had || tag != tags[i] {
						t.Fatalf("late receive %d got envelope of message %d (stored %v)", tags[i], tag, had)
					}
					if !bytes.Equal(env.Data, payload(tags[i])) {
						t.Fatalf("stored message %d delivered %x, sent %x", tags[i], env.Data, payload(tags[i]))
					}
				}
			}
			p.Stop()
			if len(stored) != 0 {
				t.Fatalf("%d stored messages never received", len(stored))
			}
			// Every block has retired: the windows hold only idle envelopes,
			// none of them one that escaped.
			if len(escaped) == 0 {
				t.Fatal("no message escaped into the store")
			}
			inSlot := make(map[*match.Envelope]bool)
			for wi := range p.windows {
				for _, env := range p.windows[wi].envs {
					if env == nil {
						continue
					}
					if inSlot[env] {
						t.Fatalf("envelope %p sits in two window slots", env)
					}
					inSlot[env] = true
					if tag, gone := escaped[env]; gone {
						t.Fatalf("message %d's envelope escaped but is still in a window slot", tag)
					}
				}
			}
			if err := matcher.Stats().CheckQuiesced(matcher.DepthStats(), false); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFinishWaitsForWorker pins finish against the single release a
// drainer makes when it stops: while a woken worker is still inside the
// item it claimed, finish neither returns nor recycles the block's record,
// though every other item is done and the publisher has stopped draining.
// The publisher claims item 0 and chains a wake before running it; item 0
// waits until item 1 has started, so item 1 runs on a worker.
func TestFinishWaitsForWorker(t *testing.T) {
	acc := MustNew(Config{Threads: 2})
	defer acc.Close()
	for round := 0; round < 50; round++ {
		inside, release := make(chan struct{}), make(chan struct{})
		var ran [3]atomic.Bool
		tk := acc.publish(3, func(item int) {
			ran[item].Store(true)
			switch item {
			case 0:
				<-inside
			case 1:
				close(inside)
				<-release
			}
		}, true)
		bs, gen := tk.bs, tk.gen
		done := make(chan struct{})
		go func() {
			acc.drain(tk)
			acc.finish(tk)
			close(done)
		}()
		<-inside
		time.Sleep(time.Millisecond)
		var early string
		select {
		case <-done:
			early = "finish returned"
		default:
			if v := bs.state.Load(); uint32(v>>32) != gen || bs.fn == nil {
				early = "the record was recycled"
			}
		}
		close(release) // before failing: Close waits for the worker
		if early != "" {
			t.Fatalf("round %d: %s while a worker was inside item 1", round, early)
		}
		<-done
		for i := range ran {
			if !ran[i].Load() {
				t.Fatalf("round %d: item %d never ran", round, i)
			}
		}
	}
}

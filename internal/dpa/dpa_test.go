package dpa

import (
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/match"
	"repro/internal/rdma"
)

func TestArenaAccounting(t *testing.T) {
	a := NewArena(1024)
	al1, err := a.Alloc(512)
	if err != nil {
		t.Fatal(err)
	}
	al2, err := a.Alloc(512)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Alloc(1); err != ErrOutOfMemory {
		t.Fatalf("over-capacity alloc: %v", err)
	}
	if a.Used() != 1024 || a.Peak() != 1024 {
		t.Fatalf("used=%d peak=%d", a.Used(), a.Peak())
	}
	al1.Release()
	al1.Release() // double release is a no-op
	if a.Used() != 512 {
		t.Fatalf("used after release = %d", a.Used())
	}
	if a.Peak() != 1024 {
		t.Fatalf("peak must persist, got %d", a.Peak())
	}
	al2.Release()
	if a.Capacity() != 1024 {
		t.Fatalf("capacity = %d", a.Capacity())
	}
	if _, err := a.Alloc(-1); err == nil {
		t.Fatal("negative alloc accepted")
	}
}

func TestAcceleratorRunBlock(t *testing.T) {
	acc := MustNew(Config{Threads: 8})
	defer acc.Close()
	var seen [8]atomic.Bool
	acc.RunBlock(8, func(tid int) { seen[tid].Store(true) })
	for tid := range seen {
		if !seen[tid].Load() {
			t.Fatalf("thread %d never ran", tid)
		}
	}
	if acc.Activations() != 8 {
		t.Fatalf("activations = %d, want 8", acc.Activations())
	}
	if acc.Threads() != 8 {
		t.Fatalf("threads = %d", acc.Threads())
	}
}

// TestConflictedBlockOnOneThread runs blocks whose handlers all conflict on
// accelerators narrower than the blocks. Every wait of a block's work item is
// for a lower-numbered item, claimed earlier by a goroutine that is running,
// so the thread count is the modelled width and not a liveness condition.
func TestConflictedBlockOnOneThread(t *testing.T) {
	// With-conflict, slow-path matcher (Figure 8 WC-SP): every thread books
	// the same receive and all but the first resolve one after another.
	wcsp := func(blockSize, depth int) core.Config {
		return core.Config{Bins: 64, MaxReceives: 256, BlockSize: blockSize, InFlightBlocks: depth,
			SimultaneousArrival: true, DisableFastPath: true}
	}
	// run pushes msgs same-key messages for as many posted receives before
	// the pipeline starts, so that it forms full blocks, and requires the
	// list matcher's pairing: message i takes receive i.
	run := func(t *testing.T, threads int, cfg core.Config, msgs int, handle func(*core.OptimisticMatcher)) *core.OptimisticMatcher {
		t.Helper()
		acc := MustNew(Config{Threads: threads})
		defer acc.Close()
		matcher := core.MustNew(cfg)
		cq := rdma.NewCQ()
		p := NewPipeline(acc, matcher, cq)
		p.Decode = func(c rdma.Completion, env *match.Envelope) *match.Envelope {
			env.Source, env.Tag = 1, 5
			return env
		}
		var mu sync.Mutex
		got := make(map[uint64]uint64) // message sequence → receive label
		p.Handle = func(tid int, res core.Result, c rdma.Completion) {
			if handle != nil {
				handle(matcher)
			}
			if res.Unexpected {
				t.Errorf("message %d found no receive", res.Env.Seq)
				return
			}
			mu.Lock()
			got[res.Env.Seq] = res.Recv.Label
			mu.Unlock()
		}
		golden := match.NewListMatcher()
		want := make(map[uint64]uint64)
		for i := 0; i < msgs; i++ {
			if _, _, err := matcher.PostRecv(&match.Recv{Source: 1, Tag: 5}); err != nil {
				t.Fatal(err)
			}
			golden.PostRecv(&match.Recv{Source: 1, Tag: 5})
			cq.Push(rdma.Completion{Op: rdma.OpRecv})
		}
		for seq := uint64(1); seq <= uint64(msgs); seq++ {
			r, _ := golden.Arrive(&match.Envelope{Source: 1, Tag: 5, Seq: seq})
			want[seq] = r.Label
		}
		p.Start()
		for p.Messages() < uint64(msgs) {
			runtime.Gosched()
		}
		p.Stop()
		mu.Lock()
		defer mu.Unlock()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("pairing (message → receive label):\n got %v\nwant %v", got, want)
		}
		if a := acc.Activations(); a != uint64(msgs) {
			t.Fatalf("activations = %d, want %d (one per message)", a, msgs)
		}
		return matcher
	}

	t.Run("block of 32 on one thread", func(t *testing.T) {
		m := run(t, 1, wcsp(32, 1), 32, nil)
		if st := m.Stats(); st.Blocks != 1 || st.Conflicts != 31 || st.SlowPath != 31 {
			t.Fatalf("want one block with 31 slow-path conflicts, got %+v", st)
		}
	})

	// Four blocks of eight in flight on eight threads. The first handler
	// does not return until the fourth block has begun, so a pipeline that
	// narrowed its depth to Threads/BlockSize = 1 would never get there.
	t.Run("depth 4 wider than the pool", func(t *testing.T) {
		var once sync.Once
		run(t, 8, wcsp(8, 4), 32, func(m *core.OptimisticMatcher) {
			once.Do(func() {
				deadline := time.Now().Add(10 * time.Second)
				for m.Stats().Blocks < 4 {
					if time.Now().After(deadline) {
						t.Errorf("%d blocks begun behind a blocked handler, want 4", m.Stats().Blocks)
						return
					}
					runtime.Gosched()
				}
			})
		})
	})
}

// TestRendezvousHandlersOverlap pins what the pool is still for: a handler
// about to issue a rendezvous READ wakes a worker first, so the READs of a
// block are in flight together (as far as the pool reaches) although its
// eager handlers all run on the launcher. Here no handler returns until all
// four are inside Handle.
func TestRendezvousHandlersOverlap(t *testing.T) {
	const n = 4
	acc := MustNew(Config{Threads: n})
	defer acc.Close()
	matcher := core.MustNew(core.Config{Bins: 64, MaxReceives: 64, BlockSize: n})
	cq := rdma.NewCQ()
	p := NewPipeline(acc, matcher, cq)
	p.Decode = func(c rdma.Completion, env *match.Envelope) *match.Envelope {
		env.Source, env.Tag, env.SenderKey = 1, match.Tag(c.WRID), 7
		return env
	}
	var inside atomic.Int32
	p.Handle = func(tid int, res core.Result, c rdma.Completion) {
		inside.Add(1)
		deadline := time.Now().Add(10 * time.Second)
		for inside.Load() < n {
			if time.Now().After(deadline) {
				t.Errorf("handler %d: %d of %d rendezvous handlers in flight", tid, inside.Load(), n)
				return
			}
			runtime.Gosched()
		}
	}
	for i := 0; i < n; i++ {
		if _, _, err := matcher.PostRecv(&match.Recv{Source: 1, Tag: match.Tag(i)}); err != nil {
			t.Fatal(err)
		}
		cq.Push(rdma.Completion{Op: rdma.OpRecv, WRID: uint64(i)})
	}
	p.Start()
	for p.Messages() < n {
		runtime.Gosched()
	}
	p.Stop()
}

func TestAcceleratorConfigValidation(t *testing.T) {
	if _, err := New(Config{Threads: -1}); err == nil {
		t.Fatal("negative threads accepted")
	}
	if _, err := New(Config{Threads: MaxThreads + 1}); err == nil {
		t.Fatal("too many threads accepted")
	}
	a, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if a.Threads() != DefaultThreads {
		t.Fatalf("default threads = %d", a.Threads())
	}
	if a.Arena().Capacity() != L3CacheBytes {
		t.Fatalf("default memory = %d", a.Arena().Capacity())
	}
	a.Close() // double close is safe
}

func TestAcceleratorParallelismWithinBlock(t *testing.T) {
	// All block threads must be live simultaneously (the matching engine's
	// partial barrier requires it): have every thread wait for all others.
	acc := MustNew(Config{Threads: 16})
	defer acc.Close()
	var mu sync.Mutex
	waiting := 0
	cond := sync.NewCond(&mu)
	acc.RunBlock(16, func(tid int) {
		mu.Lock()
		waiting++
		if waiting == 16 {
			cond.Broadcast()
		} else {
			for waiting < 16 {
				cond.Wait()
			}
		}
		mu.Unlock()
	})
}

// TestRunBlockChainWakeFullBarrier repeats the full-barrier block at the
// accelerator's whole width: with chained wake-ups every worker must have
// passed a ticket on before it parks in its handler, or the block never
// gathers all Threads activations. Repetition recycles dispatch records.
func TestRunBlockChainWakeFullBarrier(t *testing.T) {
	const n = DefaultThreads
	acc := MustNew(Config{Threads: n})
	defer acc.Close()
	for round := 0; round < 200; round++ {
		var started atomic.Int32
		release := make(chan struct{})
		acc.RunBlock(n, func(tid int) {
			if started.Add(1) == n {
				close(release)
			}
			<-release
		})
	}
	if got := acc.Activations(); got != 200*n {
		t.Fatalf("activations = %d, want %d", got, 200*n)
	}
}

// TestRunBlockChainWakeConcurrentBlocks runs four blocks of eight at once on
// a 32-thread accelerator — the depth-4 pipeline's shape — with handlers
// that wait for every lower thread ID of their own block (the partial
// barrier). The four ticket chains interleave on one work channel and each
// block must still end up with a worker per activation.
func TestRunBlockChainWakeConcurrentBlocks(t *testing.T) {
	const callers, n, rounds = 4, 8, 200
	acc := MustNew(Config{Threads: callers * n})
	defer acc.Close()
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				var arrived [n]chan struct{}
				for i := range arrived {
					arrived[i] = make(chan struct{})
				}
				acc.RunBlock(n, func(tid int) {
					close(arrived[tid])
					for lower := 0; lower < tid; lower++ {
						<-arrived[lower]
					}
				})
			}
		}()
	}
	wg.Wait()
	if got := acc.Activations(); got != callers*n*rounds {
		t.Fatalf("activations = %d, want %d", got, callers*n*rounds)
	}
}

// TestRunBlockNoSurplusTicket pins the narrow ends of chain-wake on a
// one-thread accelerator, where a ticket nobody needs cannot hide: the only
// worker is busy inside the handler, so anything sent stays in the channel.
func TestRunBlockNoSurplusTicket(t *testing.T) {
	acc := MustNew(Config{Threads: 1})
	defer acc.Close()
	ran := false
	acc.RunBlock(1, func(int) {
		ran = true
		if n := len(acc.work); n != 0 {
			t.Errorf("RunBlock(1) left %d tickets behind its only claim", n)
		}
		acc.RunBlock(0, func(int) { t.Error("RunBlock(0) ran a handler") })
		if n := len(acc.work); n != 0 {
			t.Errorf("RunBlock(0) sent %d tickets", n)
		}
	})
	if !ran || acc.Activations() != 1 {
		t.Fatalf("ran=%v activations=%d, want one activation", ran, acc.Activations())
	}
}

// TestPipelineEndToEnd drives RDMA completions through the pipeline and
// checks matches and unexpected handling.
func TestPipelineEndToEnd(t *testing.T) {
	acc := MustNew(Config{Threads: 8})
	defer acc.Close()
	matcher := core.MustNew(core.Config{
		Bins: 64, MaxReceives: 256, BlockSize: 8,
		EarlyBookingCheck: true,
	})
	cq := rdma.NewCQ()
	p := NewPipeline(acc, matcher, cq)

	type outcome struct {
		matched bool
		src     match.Rank
	}
	var mu sync.Mutex
	outcomes := make(map[uint64]outcome)

	p.Decode = func(c rdma.Completion, env *match.Envelope) *match.Envelope {
		env.Source = match.Rank(c.Imm >> 16)
		env.Tag = match.Tag(c.Imm & 0xffff)
		return env
	}
	p.Handle = func(tid int, res core.Result, c rdma.Completion) {
		mu.Lock()
		outcomes[res.Env.Seq] = outcome{matched: !res.Unexpected, src: res.Env.Source}
		mu.Unlock()
	}
	p.Start()

	// Post receives for sources 0..3, tag 5; sources 4..7 will be unexpected.
	for src := 0; src < 4; src++ {
		if _, _, err := matcher.PostRecv(&match.Recv{Source: match.Rank(src), Tag: 5}); err != nil {
			t.Fatal(err)
		}
	}
	for src := 0; src < 8; src++ {
		cq.Push(rdma.Completion{Op: rdma.OpRecv, Imm: uint32(src<<16 | 5)})
	}
	// Wait until all eight messages are processed, then stop.
	for p.Messages() < 8 {
	}
	p.Stop()

	if p.Blocks() == 0 || p.Messages() != 8 {
		t.Fatalf("blocks=%d messages=%d", p.Blocks(), p.Messages())
	}
	mu.Lock()
	defer mu.Unlock()
	if len(outcomes) != 8 {
		t.Fatalf("outcomes = %d, want 8", len(outcomes))
	}
	for _, o := range outcomes {
		if o.src < 4 && !o.matched {
			t.Fatalf("source %d should have matched", o.src)
		}
		if o.src >= 4 && o.matched {
			t.Fatalf("source %d should be unexpected", o.src)
		}
	}
	if matcher.UnexpectedDepth() != 4 {
		t.Fatalf("unexpected depth = %d, want 4", matcher.UnexpectedDepth())
	}
}

func TestPipelineRequiresCallbacks(t *testing.T) {
	acc := MustNew(Config{Threads: 2})
	defer acc.Close()
	matcher := core.MustNew(core.Config{Bins: 4, MaxReceives: 4, BlockSize: 2})
	p := NewPipeline(acc, matcher, rdma.NewCQ())
	defer func() {
		if recover() == nil {
			t.Fatal("Start without callbacks must panic")
		}
	}()
	p.Start()
}

// TestPipelineStopDrainRace races Stop against a producer that keeps
// pushing completions. The pipeline must neither deadlock nor lose
// already-drained messages, and Messages() must be stable once Stop
// returns. Run under -race in CI.
func TestPipelineStopDrainRace(t *testing.T) {
	for iter := 0; iter < 20; iter++ {
		acc := MustNew(Config{Threads: 4})
		matcher := core.MustNew(core.Config{
			Bins: 64, MaxReceives: 4096, BlockSize: 4,
		})
		cq := rdma.NewCQ()
		p := NewPipeline(acc, matcher, cq)
		var handled atomic.Uint64
		p.Decode = func(c rdma.Completion, env *match.Envelope) *match.Envelope {
			env.Source = 1
			env.Tag = match.Tag(c.Imm)
			return env
		}
		p.Handle = func(tid int, res core.Result, c rdma.Completion) {
			handled.Add(1)
		}
		p.Start()

		// Bounded flood: Stop drains whatever is in flight, so the producer
		// must terminate on its own for Stop's drain loop to converge.
		var pushed atomic.Uint64
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := uint32(0); i < 2000; i++ {
				cq.Push(rdma.Completion{Op: rdma.OpRecv, Imm: i})
				pushed.Add(1)
			}
		}()

		// Let some traffic flow, then stop mid-stream.
		for handled.Load() < 8 {
		}
		p.Stop()
		wg.Wait()

		got := p.Messages()
		if got != handled.Load() {
			t.Fatalf("iter %d: Messages()=%d but Handle ran %d times", iter, got, handled.Load())
		}
		if got > pushed.Load() {
			t.Fatalf("iter %d: processed %d of %d pushed", iter, got, pushed.Load())
		}
		acc.Close()
	}
}

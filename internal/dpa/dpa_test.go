package dpa

import (
	"errors"
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

// newMatcher is core.New for configurations known to be valid.
func newMatcher(cfg core.Config) *core.OptimisticMatcher {
	m, err := core.New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// countHandled wraps p.Handle so that the returned count rises as each
// handler returns: how a test waits for the messages it has pushed.
func countHandled(p *Pipeline) *atomic.Uint64 {
	var n atomic.Uint64
	handle := p.Handle
	p.Handle = func(tid int, res core.Result, c rdma.Completion) {
		handle(tid, res, c)
		n.Add(1)
	}
	return &n
}

// TestArenaAccounting drives the NIC-memory budget: reservations fit up to
// the capacity, the next byte is ErrOutOfMemory, and concurrent reservers
// never overcommit it.
func TestArenaAccounting(t *testing.T) {
	a := MustNew(Config{Threads: 1})
	defer a.Close()
	for _, n := range []int{L3CacheBytes / 2, L3CacheBytes / 2, 0} {
		if err := a.Reserve(n); err != nil {
			t.Fatalf("reserve %d: %v", n, err)
		}
	}
	if err := a.Reserve(1); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("over-capacity reserve: %v", err)
	}
	if err := a.Reserve(-1); err == nil || errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("negative reserve: %v", err)
	}

	// 80 concurrent asks for 1/40 of the memory and a byte: 39 fit.
	const chunk = L3CacheBytes/40 + 1
	b := MustNew(Config{Threads: 1})
	defer b.Close()
	var wg sync.WaitGroup
	var granted atomic.Int64
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				if b.Reserve(chunk) == nil {
					granted.Add(chunk)
				}
			}
		}()
	}
	wg.Wait()
	if got := granted.Load(); got != 39*chunk {
		t.Fatalf("concurrent reservers were granted %d B of %d, want %d", got, L3CacheBytes, 39*chunk)
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
		matcher := newMatcher(cfg)
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
		handled := countHandled(p)
		p.Start()
		for handled.Load() < uint64(msgs) {
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
	matcher := newMatcher(core.Config{Bins: 64, MaxReceives: 64, BlockSize: n})
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
	handled := countHandled(p)
	p.Start()
	for handled.Load() < n {
		runtime.Gosched()
	}
	p.Stop()
}

// TestThreadsFor pins the derived thread count: one thread per handler of
// every block in flight, never below the prototype's 32, so eight blocks
// of 32 fill the 256 hardware threads.
func TestThreadsFor(t *testing.T) {
	want := map[int][]int{
		8:  {32, 32, 32, 32, 40, 48, 56, 64},
		32: {32, 64, 96, 128, 160, 192, 224, 256},
	}
	for n, byK := range want {
		for k := 1; k <= core.MaxInFlightBlocks; k++ {
			if got := ThreadsFor(core.Config{BlockSize: n, InFlightBlocks: k}); got != byK[k-1] {
				t.Errorf("ThreadsFor(BlockSize %d, K %d) = %d, want %d", n, k, got, byK[k-1])
			}
		}
	}
	if got := ThreadsFor(core.Config{BlockSize: 32}); got != 32 {
		t.Errorf("ThreadsFor at K 0 (one block) = %d, want 32", got)
	}
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
	matcher := newMatcher(core.Config{
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
	handled := countHandled(p)
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
	for handled.Load() < 8 {
	}
	p.Stop()

	if got := handled.Load(); got != 8 {
		t.Fatalf("messages = %d, want 8", got)
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
	matcher := newMatcher(core.Config{Bins: 4, MaxReceives: 4, BlockSize: 2})
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
// already-drained messages, and no handler may run once Stop has returned.
// Run under -race in CI.
func TestPipelineStopDrainRace(t *testing.T) {
	for iter := 0; iter < 20; iter++ {
		acc := MustNew(Config{Threads: 4})
		matcher := newMatcher(core.Config{
			Bins: 64, MaxReceives: 4096, BlockSize: 4,
		})
		cq := rdma.NewCQ()
		p := NewPipeline(acc, matcher, cq)
		var handled atomic.Uint64
		var stopped atomic.Bool
		p.Decode = func(c rdma.Completion, env *match.Envelope) *match.Envelope {
			env.Source = 1
			env.Tag = match.Tag(c.Imm)
			return env
		}
		p.Handle = func(tid int, res core.Result, c rdma.Completion) {
			if stopped.Load() {
				t.Errorf("iter %d: Handle ran after Stop returned", iter)
			}
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
		stopped.Store(true)
		wg.Wait()

		if got := handled.Load(); got > pushed.Load() {
			t.Fatalf("iter %d: processed %d of %d pushed", iter, got, pushed.Load())
		}
		acc.Close()
	}
}

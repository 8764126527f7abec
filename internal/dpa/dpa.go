// Package dpa simulates the Data Path Accelerator of the BlueField-3 DPU
// (§II-C): a pool of lightweight execution units running handlers to
// completion, with fast access to NIC resources and a small on-NIC memory
// hosting bounce buffers and the matching data structures.
//
// Substitution note (see DESIGN.md): the real DPA has 16 cores and 256
// hardware threads programmed through DOCA; what the matching algorithm
// actually depends on is the execution model — N parallel run-to-completion
// handlers triggered by completion-queue entries, handler i taking the i-th
// entry of each block of N as the strided polling of §IV-A does — and a
// bounded memory budget. Both are modeled here; handler bodies run as
// goroutines pinned to logical thread IDs.
package dpa

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// BlueField-3 DPA memory hierarchy (§IV-E).
const (
	// L3CacheBytes is the BF3 DPA L3 cache size (3 MiB).
	L3CacheBytes = 3 * 1024 * 1024
	// DefaultThreads matches the paper's prototype (32 DPA threads,
	// "limited by the bookkeeping bitmap size").
	DefaultThreads = 32
	// MaxThreads is the BF3 hardware thread count.
	MaxThreads = 256
)

// ThreadsFor is the DPA thread count a matcher of shape cfg runs on: one
// thread per handler of every block in flight (InFlightBlocks ×
// BlockSize), and never fewer than the prototype's DefaultThreads. Eight
// blocks of 32 fill the 256 hardware threads, so it never exceeds
// MaxThreads for a valid cfg.
func ThreadsFor(cfg core.Config) int {
	return max(DefaultThreads, max(cfg.InFlightBlocks, 1)*cfg.BlockSize)
}

// ErrOutOfMemory is returned when a reservation exceeds the NIC memory left;
// the caller is expected to fall back to host (software) handling, as §IV-E
// prescribes when the DPA runs out of resources.
var ErrOutOfMemory = errors.New("dpa: out of NIC memory")

// Accelerator is the simulated DPA: a fixed pool of execution units that
// run handler activations to completion. The units are started all
// together by the first wake, so an accelerator whose blocks never ask for
// help (eager traffic, or none) owns no goroutine.
type Accelerator struct {
	threads int

	// The NIC-memory budget: the modeled (§IV-E) bytes of matching tables
	// reserved so far against the device's L3CacheBytes. It holds no
	// memory; the host representation of what it budgets lives with its
	// owner.
	memMu   sync.Mutex
	memUsed int

	work  chan ticket
	quit  chan struct{} // closed by Close; the workers exit on it
	start sync.Once     // starts the workers; Close spends it if no wake has
	wg    sync.WaitGroup

	activations atomic.Uint64
	closed      atomic.Bool
}

// blockState is one block's dispatch record: the launcher and the workers
// claim item numbers by advancing the packed state word until the block is
// exhausted. States are pooled — the steady-state dispatch path allocates
// nothing per block — which is safe because every access is guarded by the
// generation tag (see ticket): a worker still inspecting a recycled state
// sees a bumped generation and walks away without touching the new block.
//
// state packs generation(32) | n(16) | next(16). Item `next` is claimed by
// CAS-incrementing the word; the CAS revalidates the generation and the
// bound together, so a stale worker can never take an item from, or run a
// handler of, a block it holds no ticket for. Items are claimed in ascending
// order, which is what lets an item wait for lower-numbered ones whatever
// the number of goroutines draining the block: the lowest unfinished item
// waits for nothing, and whoever claimed it is running it.
type blockState struct {
	fn    func(item int)
	state atomic.Uint64
	wg    sync.WaitGroup
}

// maxItems is the widest block the packed state word can count.
const maxItems = 0xFFFF

// ticket is one worker wake-up for one block: the block's dispatch record
// plus the generation it was issued for, and whether its drainers chain
// their wake-ups (drain). Tickets pass through the work channel by value, so
// waking a worker allocates nothing.
type ticket struct {
	bs    *blockState
	gen   uint32
	chain bool
}

// claimable reports whether state word v still belongs to t's block and has
// an item left to claim.
func (t ticket) claimable(v uint64) bool {
	return uint32(v>>32) == t.gen && int(v)&maxItems < int(v>>16)&maxItems
}

// bsPool recycles block dispatch records. fn and wg are only read after a
// successful generation-validated CAS, which orders them after publish's
// writes and pins the record live until the drainer releases its claims.
var bsPool = sync.Pool{New: func() any { return new(blockState) }}

// Config parameterizes the simulated device.
type Config struct {
	// Threads is the number of execution units (default DefaultThreads;
	// an mpi world sets ThreadsFor its matcher).
	Threads int
}

// New returns an accelerator. Its workers start at its first wake.
func New(cfg Config) (*Accelerator, error) {
	if cfg.Threads == 0 {
		cfg.Threads = DefaultThreads
	}
	if cfg.Threads < 1 || cfg.Threads > MaxThreads {
		return nil, fmt.Errorf("dpa: Threads must be in [1,%d], got %d", MaxThreads, cfg.Threads)
	}
	return &Accelerator{
		threads: cfg.Threads,
		work:    make(chan ticket, cfg.Threads),
		quit:    make(chan struct{}),
	}, nil
}

// MustNew is New for known-valid configurations.
func MustNew(cfg Config) *Accelerator {
	a, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return a
}

// startWorkers launches the execution units (once, from start).
func (a *Accelerator) startWorkers() {
	a.wg.Add(a.threads)
	for i := 0; i < a.threads; i++ {
		go a.worker()
	}
}

// worker executes handler activations to completion, one at a time — the
// DPA's run-to-completion discipline.
func (a *Accelerator) worker() {
	defer a.wg.Done()
	for {
		select {
		case t := <-a.work:
			a.drain(t)
		case <-a.quit:
			return
		}
	}
}

// drain claims and runs items of the block t was issued for until none is
// left, so a goroutine takes as many consecutive items as it can without a
// scheduler round-trip. It releases what it claimed with one wg.Add when it
// stops: finish is the only waiter, and the record cannot be recycled
// before that release, so the generation check stays sound meanwhile.
//
// On a chaining ticket wake-ups are chained: a drainer that claims an item
// while more remain wakes one worker before it runs the item. A block whose
// items run to completion then costs one wake-up (the woken worker finds
// the block drained), while a block whose items block on each other still
// gets one goroutine per item, as far as the pool reaches: every blocked
// drainer has already woken its successor. Otherwise an item that is about
// to block calls wake itself.
func (a *Accelerator) drain(t ticket) {
	bs, chain := t.bs, t.chain
	claimed := 0
	for {
		v := bs.state.Load()
		if !t.claimable(v) {
			break // block exhausted, or the record moved on to a later one
		}
		item := int(v) & maxItems
		if !bs.state.CompareAndSwap(v, v+1) {
			continue // lost the claim race; retry on the fresh word
		}
		if chain && a.wake(t) {
			chain = false
		}
		bs.fn(item)
		claimed++
	}
	if claimed != 0 {
		bs.wg.Add(-claimed)
	}
}

// wake hands one worker a ticket for t's block, unless no item is left to
// claim; the first wake starts the workers. It never blocks: it reports
// false when the channel is full, which means at least Threads wake-ups are
// already pending, and the caller keeps draining the block itself. A
// ticket left in the channel at Close is never drained, which is harmless:
// its publisher drains its own block.
func (a *Accelerator) wake(t ticket) bool {
	if !t.claimable(t.bs.state.Load()) {
		return true
	}
	a.start.Do(a.startWorkers)
	select {
	case a.work <- t:
		return true
	default:
		return false
	}
}

// publish makes fn(0) … fn(n-1), n ≥ 1, claimable under the returned
// ticket. The publisher drains the block itself (drain), so progress never
// depends on a worker being free, and then calls finish.
func (a *Accelerator) publish(n int, fn func(item int), chain bool) ticket {
	if n > maxItems {
		panic(fmt.Sprintf("dpa: block of %d items exceeds %d", n, maxItems))
	}
	bs := bsPool.Get().(*blockState)
	gen := uint32(bs.state.Load()>>32) + 1
	bs.fn = fn
	bs.wg.Add(n)
	// Publishing the new generation ends any straggler from the record's
	// previous life: its next Load or CAS sees the bumped word and breaks.
	bs.state.Store(uint64(gen)<<32 | uint64(n)<<16)
	return ticket{bs: bs, gen: gen, chain: chain}
}

// finish waits for the items other goroutines are still running and
// recycles the record.
func (a *Accelerator) finish(t ticket) {
	t.bs.wg.Wait()
	t.bs.fn = nil
	bsPool.Put(t.bs)
}

// RunBlock executes fn(0) … fn(n-1) concurrently — on the pool and on the
// calling goroutine — and waits for all of them: one activation each.
// Activations that all wait for each other need n ≤ Threads+1; activations
// that wait only for lower-numbered ones finish at any n.
func (a *Accelerator) RunBlock(n int, fn func(tid int)) {
	if n <= 0 {
		return
	}
	t := a.publish(n, fn, true)
	a.drain(t)
	a.finish(t)
	a.activations.Add(uint64(n))
}

// Threads returns the execution-unit count.
func (a *Accelerator) Threads() int { return a.threads }

// Reserve charges n bytes of NIC memory for the accelerator's lifetime, or
// fails with ErrOutOfMemory when they do not fit. It is safe to call
// concurrently.
func (a *Accelerator) Reserve(n int) error {
	if n < 0 {
		return fmt.Errorf("dpa: negative reservation %d", n)
	}
	a.memMu.Lock()
	defer a.memMu.Unlock()
	if a.memUsed+n > L3CacheBytes {
		return ErrOutOfMemory
	}
	a.memUsed += n
	return nil
}

// Activations returns the number of handler activations executed: one per
// message handled, counted when its block finishes.
func (a *Accelerator) Activations() uint64 { return a.activations.Load() }

// Close stops the workers. Spending start first means a wake racing Close
// either started the workers before (and Close waits for them) or never
// will. A block run afterwards is drained by its launcher alone.
func (a *Accelerator) Close() {
	if a.closed.CompareAndSwap(false, true) {
		a.start.Do(func() {})
		close(a.quit)
		a.wg.Wait()
	}
}

package core

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/match"
	"repro/internal/obs"
)

// Path identifies how a message's match was finalized, for statistics and
// for the Figure 8 scenario assertions.
type Path uint8

const (
	// PathOptimistic: the optimistic phase succeeded with no conflict.
	PathOptimistic Path = iota
	// PathFast: a conflict was resolved on the fast path (§III-D3a).
	PathFast
	// PathSlow: a conflict (or a lower thread's conflict) forced the slow
	// path (§III-D3b).
	PathSlow
	// PathUnexpected: no receive matched; the message was stored.
	PathUnexpected
)

// String implements fmt.Stringer.
func (p Path) String() string {
	switch p {
	case PathOptimistic:
		return "optimistic"
	case PathFast:
		return "fast"
	case PathSlow:
		return "slow"
	case PathUnexpected:
		return "unexpected"
	}
	return fmt.Sprintf("Path(%d)", uint8(p))
}

// Result is the outcome of matching one message.
type Result struct {
	Env        *match.Envelope
	Recv       *match.Recv // matched receive, nil when Unexpected
	Unexpected bool
	Path       Path
}

// barrierSpinBudget bounds how long a barrier waiter busy-polls before
// yielding to the scheduler. With a single P (GOMAXPROCS=1, or a container
// CPU quota of one) spinning can never observe progress — the completing
// goroutine needs the P — so the budget drops to zero and waiters yield
// immediately. Read when a matcher is constructed, not at package init, so
// it follows the process's actual scheduler width.
func barrierSpinBudget() int {
	if runtime.GOMAXPROCS(0) > 1 {
		return 128
	}
	return 0
}

// frontier tracks completion of per-thread milestones in thread order: the
// completed prefix of threads 0..k-1 is what waiters wait on. Threads
// complete in arbitrary order. It packs the block epoch and a
// completed-thread bitmap into one word (epoch<<32 | bitmap — the epoch is
// the sense of a sense-reversing barrier, so stale words from finished
// blocks can never satisfy a waiter). complete is a single atomic OR;
// waitThrough(i) checks that the low i+1 bits are all set, spinning briefly
// and then yielding with runtime.Gosched. No lock, no wakeup storm, no
// allocation — the cost profile of the DPA's hardware partial barrier
// (§III-D1).
type frontier struct {
	epoch uint32
	spins int // busy-poll budget (barrierSpinBudget)

	word atomic.Uint64 // epoch<<32 | completed-thread bitmap
}

// reset prepares the frontier for a new block in epoch e.
func (f *frontier) reset(e uint32, spins int) {
	f.epoch = e
	f.spins = spins
	f.word.Store(uint64(e) << 32)
}

// complete marks thread i done and advances the frontier.
func (f *frontier) complete(i int) {
	f.word.Or(uint64(1) << uint(i))
}

// waitThrough blocks until every thread 0..i has completed.
func (f *frontier) waitThrough(i int) {
	if i < 0 {
		return
	}
	want := uint64(1)<<uint(i+1) - 1
	for spins := 0; ; spins++ {
		w := f.word.Load()
		if w&want == want || uint32(w>>32) != f.epoch {
			// Prefix complete — or the word belongs to another epoch,
			// which can only mean this block already finished
			// (defensive: all waiters join before Finish).
			return
		}
		if spins >= f.spins {
			runtime.Gosched()
		}
	}
}

// Block processes up to BlockSize consecutive messages in parallel. Obtain
// one with BeginBlock, run every thread ID 0..n-1 (one per message in
// arrival order) through Book and then Resolve — or through Match, which is
// the two back to back, from n goroutines — then call Finish (or
// FinishInto). Up to Config.InFlightBlocks blocks run concurrently;
// each carries a monotone sequence number and they retire in sequence
// order, which is what serializes their effects (DESIGN.md §9).
type Block struct {
	launch
	m     *OptimisticMatcher
	n     int
	mask  uint32
	epoch uint32 // uint32(seq): booking-bitmap and barrier sense tag

	// Deliver, when set, is called once per DEFERRED result (a result that
	// could not commit at Match time because a lower-sequence block was
	// still in flight) after the block retires, outside all engine locks.
	// Early-committed results — the common case, and the only case at
	// in-flight depth 1 — are never re-delivered; their Match call already
	// returned final=true.
	Deliver func(tid int, res Result)

	booked frontier // partial barrier: booking milestones (§III-D1)
	done   frontier // finalization milestones (slow-path chain)

	cand [MaxBlockSize]atomic.Int32 // candidate slot per thread, or candNone/candRelaxed

	// Per-thread outputs; each thread writes only its own slot. Book leaves
	// the envelope in results[tid].Env for Resolve.
	final   [MaxBlockSize]*descriptor
	results [MaxBlockSize]Result
	early   [MaxBlockSize]bool // result committed at Match time
	tstats  [MaxBlockSize]threadStats
}

// What Book leaves in cand[tid] when it booked no receive.
const (
	candNone    = -1 // the optimistic search found nothing
	candRelaxed = -2 // allow_overtaking message: Resolve claims without booking
)

// launch is what a block is assigned when it takes its place in the arrival
// order, in one ring.mu section (launchLocked).
type launch struct {
	seq     uint64 // block sequence; blocks retire in this order
	seqBase uint64 // arrival sequence of the message before the block's first
	horizon uint64 // post watermark snapshot: labels >= horizon are invisible

	// headAtStart records whether every lower-sequence block had already
	// retired when this block began. If so, no steal can ever touch this
	// block's pairings (steals only flow from lower-sequence blocks), so
	// matched results commit at Match time — the only mode at depth 1.
	// Otherwise every result stays provisional until retirement re-derives
	// the block's assignments in thread order (validate).
	headAtStart bool

	startNano int64 // launch timestamp (traceLaunch; 0 when the block is not timed)
}

// threadStats accumulates per-thread counters, folded into EngineStats at
// retirement to avoid atomic contention on the hot path.
type threadStats struct {
	traversed   uint64
	optimistic  uint64
	relaxed     uint64
	conflicts   uint64
	fastPath    uint64
	slowPath    uint64
	unexpected  uint64
	matched     uint64
	revalidated uint64
	steals      uint64
	maxDepth    uint64
}

// launchLocked takes the next place in the arrival order for a block of n
// messages. Caller holds ring.mu.
func (m *OptimisticMatcher) launchLocked(n int) launch {
	r := &m.ring
	l := launch{seq: r.next, seqBase: m.nextSeq, headAtStart: r.retired+1 == r.next}
	r.next++
	m.nextSeq += uint64(n)
	// The watermark snapshot is taken under ring.mu so it is monotone in
	// block sequence — a later block never sees fewer posts than an earlier
	// one, which the retirement-time serialization argument relies on.
	l.horizon = m.postHorizon.Load()
	// Count the block up front: a handler may complete a user request
	// mid-block, and an observer woken by that completion must already see
	// the traffic in Stats(). The outcome counters fold in at retirement.
	r.ctr[obs.CtrBlocks]++
	r.ctr[obs.CtrMessages] += uint64(n)
	return l
}

// blockNsSample: an untraced matcher times into HistBlockNs the blocks
// whose sequence it divides; a traced one times every block.
const blockNsSample = 64

// traceLaunch records the launch event of a block of n messages, outside
// ring.mu, and stamps l with its time if the block is timed.
func (m *OptimisticMatcher) traceLaunch(l *launch, n int) {
	if o := m.obs.Load(); o.Enabled() {
		l.startNano = o.Now()
		o.EventAt(l.startNano, obs.EvBlockLaunch, 0, l.seq, uint64(n), l.horizon)
	} else if l.seq%blockNsSample == 0 {
		l.startNano = o.Now() // 0 with no sink: not timed
	}
}

// BeginBlock starts an arrival block for n messages (1 <= n <= BlockSize).
// Blocks must begin in arrival order; BeginBlock blocks while
// Config.InFlightBlocks blocks are already in flight (at depth 1 this is
// exactly the old one-block-at-a-time serialization). Posts are never
// excluded.
func (m *OptimisticMatcher) BeginBlock(n int) *Block {
	if n < 1 || n > m.cfg.BlockSize {
		panic(fmt.Sprintf("core: BeginBlock(%d) outside [1,%d]", n, m.cfg.BlockSize))
	}
	r := &m.ring
	r.mu.Lock()
	if r.slots == nil {
		r.slots = make([]Block, m.cfg.InFlightBlocks)
	}
	for r.next-r.retired > uint64(len(r.slots)) {
		r.cond.Wait()
	}
	l := m.launchLocked(n)
	r.mu.Unlock()
	m.traceLaunch(&l, n)

	// The slot's previous occupant (sequence seq-K) has retired and its
	// results were copied out, so initialization below is owner-exclusive.
	b := &r.slots[l.seq%uint64(len(r.slots))]
	b.launch = l
	b.m = m
	b.n = n
	b.mask = uint32(1)<<uint(n) - 1
	b.epoch = uint32(l.seq)
	b.Deliver = nil
	b.booked.reset(b.epoch, m.barrierSpins)
	b.done.reset(b.epoch, m.barrierSpins)
	for i := 0; i < n; i++ {
		b.cand[i].Store(candNone)
		b.final[i] = nil
		b.results[i] = Result{}
		b.early[i] = false
		b.tstats[i] = threadStats{}
	}
	return b
}

// consume claims d for thread tid of block seq, recording steal provenance:
// when the claim took the descriptor back from a higher-sequence block, the
// thread's steal counter and (when tracing) an EvBlockSteal event record
// the theft the victim will discover at its retirement re-derivation.
func (m *OptimisticMatcher) consume(d *descriptor, seq uint64, tid int, st *threadStats) bool {
	ok, victim := d.consumeFrom(seq, tid)
	if ok && victim != 0 {
		st.steals++
		if o := m.obs.Load(); o.Enabled() {
			o.Event(obs.EvBlockSteal, tid, seq, victim, uint64(d.slot))
		}
	}
	return ok
}

func (b *Block) consume(d *descriptor, tid int) bool {
	return b.m.consume(d, b.seq, tid, &b.tstats[tid])
}

// claimOldest searches with no lower thread to defer to — the relaxed path,
// the slow path once every lower thread has finalized, a retirement-time
// redo, a block of one — and consumes what it finds, retrying against the
// remainder when a racing block got there first. The loop terminates
// because steals strictly lower the owning sequence.
func (m *OptimisticMatcher) claimOldest(env *match.Envelope, tid int, seq uint64, hzn uint64, st *threadStats) *descriptor {
	for {
		d := m.searchOldest(env, tid, seq, hzn, false, st)
		if d == nil || m.consume(d, seq, tid, st) {
			return d
		}
	}
}

// Match matches the message for thread tid: Book followed by Resolve. It
// must be called exactly once for every tid in [0, n) and may block on the
// partial barrier until all lower-numbered threads have booked.
//
// The returned flag reports whether the result is FINAL: committed at Match
// time because no lower-sequence block was still in flight. A non-final
// result is provisional — a lower block may steal the matched receive, and
// an unexpected verdict may be overturned by a raced post — and its settled
// value is delivered at retirement (FinishInto, or the Deliver callback).
// At in-flight depth 1 matched results are always final; unexpected ones
// are published to the store at retirement and delivered then.
func (b *Block) Match(tid int, env *match.Envelope) (Result, bool) {
	b.Book(tid, env)
	return b.Resolve(tid)
}

// Book is thread tid's optimistic phase (§III-C): search all indexes as if
// alone, select the minimum-label candidate, and book it. It never waits.
// The envelope (results[tid].Env) and the candidate (cand[tid]) are stashed
// in the block for Resolve, which may run on another goroutine: both are
// published by booked.complete(tid), the last thing Book does.
//
// Book must be called exactly once for every tid in [0, n), in any order
// and from any goroutines; each Resolve(tid) follows.
func (b *Block) Book(tid int, env *match.Envelope) {
	if env.Seq == 0 {
		env.Seq = b.seqBase + uint64(tid) + 1
	}
	b.results[tid].Env = env
	if b.m.hints.get(env.Comm).AllowOvertaking {
		// Relaxed matching (§VII mpi_assert_allow_overtaking) books nothing,
		// but the thread still completes its booking milestone so ordered
		// threads of the same block are not stalled at the partial barrier.
		b.cand[tid].Store(candRelaxed)
	} else if cand := b.m.searchOldest(env, tid, b.seq, b.horizon, b.m.cfg.EarlyBookingCheck, &b.tstats[tid]); cand != nil {
		cand.book(b.epoch, tid)
		b.cand[tid].Store(cand.slot)
	}
	b.booked.complete(tid)
}

// Resolve finishes the match Book(tid) began: partial barrier, conflict
// detection, fast or slow path, finalization. Its waits are all for
// milestones of threads at or below tid — bookings through tid itself (its
// own Book may still be running on another goroutine), and on the slow path
// the finalization of every lower thread — or, with SimultaneousArrival,
// for every thread's booking. Resolve calls made in ascending tid order
// after every Book therefore never wait, which is how one goroutine runs a
// whole block (dpa.Pipeline) and how a test replays any legal interleaving.
func (b *Block) Resolve(tid int) (Result, bool) {
	// Partial barrier (§III-D1): every earlier-message thread has booked.
	// Waiting through tid itself is what acquires this thread's own stash.
	b.booked.waitThrough(tid)
	env := b.results[tid].Env
	st := &b.tstats[tid]
	slot := b.cand[tid].Load()
	if slot == candRelaxed {
		// Ordering constraints are waived on this communicator: claim any
		// matching receive, with no conflict resolution.
		st.relaxed++
		if d := b.m.claimOldest(env, tid, b.seq, b.horizon, st); d != nil {
			return b.finalizeMatch(tid, env, d, PathOptimistic)
		}
		return b.finalizeUnexpected(tid, env, PathUnexpected)
	}
	if b.m.cfg.SimultaneousArrival {
		b.booked.waitThrough(b.n - 1) // every thread has booked
	}
	// One event per block, not per thread: the top of the staircase is the
	// last exit, so its timestamp bounds every thread's barrier phase.
	// Per-thread emission costs a ring write per MESSAGE and alone pushes
	// the enabled-tracing overhead past the DESIGN.md §10 budget.
	if o := b.m.obs.Load(); tid == b.n-1 && o.Enabled() {
		o.Event(obs.EvBlockBarrierExit, tid, b.seq, uint64(tid), 0)
	}
	var cand *descriptor
	if slot >= 0 {
		cand = b.m.table.get(slot)
	}

	// Conflict detection (§III-D2).
	myLoss := false
	if cand != nil {
		booking := cand.bookingBits(b.epoch) & b.mask
		if lowestBit(booking) < tid {
			myLoss = true
		}
	}
	lostLower := b.anyLowerConflict(tid)

	if !myLoss && !lostLower {
		if cand == nil {
			return b.finalizeUnexpected(tid, env, PathUnexpected)
		}
		if b.consume(cand, tid) {
			st.optimistic++
			return b.finalizeMatch(tid, env, cand, PathOptimistic)
		}
		// Unreachable at depth 1; with blocks in flight a lower-sequence
		// block may have taken the candidate between booking and consume.
		myLoss = true
	}
	if myLoss {
		st.conflicts++
	}

	// Fast path (§III-D3a): if every thread booked the same receive — the
	// head of a sequence of compatible receives — thread tid shifts to the
	// receive tid positions later in the sequence. Positions are counted
	// along the chain, which is why consumed receives stay linked until the
	// block retires (§IV-D lazy removal): an unlinked peer would no longer
	// occupy its position.
	if myLoss && cand != nil && !b.m.cfg.DisableFastPath &&
		cand.bookingBits(b.epoch)&b.mask == b.mask {
		if d := b.fastShift(cand, tid); d != nil {
			st.fastPath++
			return b.finalizeMatch(tid, env, d, PathFast)
		}
	}

	// Slow path (§III-D3b): wait for every earlier thread to finalize, then
	// redo the search with exclusive access to the block's leftovers.
	b.done.waitThrough(tid - 1)
	st.slowPath++
	if d := b.m.claimOldest(env, tid, b.seq, b.horizon, st); d != nil {
		return b.finalizeMatch(tid, env, d, PathSlow)
	}
	return b.finalizeUnexpected(tid, env, PathUnexpected)
}

// anyLowerConflict reports whether any thread below tid lost its booking in
// the optimistic phase. If so, this thread must resolve (§III-D2): the
// conflicted thread may re-select this thread's candidate and has
// precedence. Booking bitmaps are stable after the partial barrier, so the
// computation is race-free.
func (b *Block) anyLowerConflict(tid int) bool {
	for i := 0; i < tid; i++ {
		slot := b.cand[i].Load()
		if slot < 0 {
			continue
		}
		d := b.m.table.get(slot)
		booking := d.bookingBits(b.epoch) & b.mask
		if booking != 0 && lowestBit(booking) < i {
			return true
		}
	}
	return false
}

// fastShift walks the compatible sequence starting at cand and consumes the
// entry at position tid (position 0 is cand itself). Entries consumed by
// earlier blocks are skipped without counting — they were never available
// to this block — and entries past the block's watermark are invisible,
// while entries consumed by this block's peers (or provisionally held by
// later blocks, which are stealable) occupy their position. It returns nil
// when the sequence is too short or the walk leaves the sequence (different
// sequence ID), in which case the caller must take the slow path.
func (b *Block) fastShift(cand *descriptor, tid int) *descriptor {
	pos := 0
	for d := cand; d != nil; d = d.next.Load() {
		if d.seqID != cand.seqID {
			return nil // left the sequence of compatible receives
		}
		if d.label >= b.horizon {
			continue // posted after this block began: not yet visible
		}
		w := d.word.Load()
		if ownState(w) == stateConsumed && ownSeq(w) < b.seq {
			continue // consumed by an earlier block: never a position
		}
		if ownState(w) == stateFree {
			continue // mid-recycle remnant: not a position
		}
		if pos == tid {
			if b.consume(d, tid) {
				return d
			}
			return nil // lost a cross-block race: use the slow path
		}
		pos++
	}
	return nil
}

// finalizeMatch records a completed pairing and signals the done bitmap.
// When no lower-sequence block is in flight the pairing can never be stolen
// again, so it commits immediately (final = true); at depth 1 this is
// always the case. Otherwise the pairing stays provisional until the block
// retires.
func (b *Block) finalizeMatch(tid int, env *match.Envelope, d *descriptor, p Path) (Result, bool) {
	r := Result{Env: env, Recv: d.recv, Path: p}
	// A pairing is final only when the block has been at the head of the
	// retire frontier since it began: then no lower-sequence block ever
	// coexisted with it, nothing can steal the receive, and no same-block
	// re-derivation can reassign it (validate skips head blocks' matches).
	final := b.headAtStart
	b.early[tid] = final
	b.final[tid] = d
	b.results[tid] = r
	b.tstats[tid].matched++
	if o := b.m.obs.Load(); o.Enabled() {
		switch p {
		case PathFast:
			o.Event(obs.EvMatchFast, tid, b.seq, uint64(tid), 0)
		case PathSlow:
			o.Event(obs.EvMatchSlow, tid, b.seq, uint64(tid), 0)
		}
	}
	b.done.complete(tid)
	return r, final
}

// finalizeUnexpected records an unexpected verdict and signals the done
// bitmap. Publication into the unexpected store is ALWAYS deferred to
// retirement: inserting mid-block would expose the message to concurrent
// posts while lower-sequence messages are still provisional, breaking the
// store's arrival-prefix consistency (DESIGN.md §9).
func (b *Block) finalizeUnexpected(tid int, env *match.Envelope, p Path) (Result, bool) {
	r := Result{Env: env, Unexpected: true, Path: p}
	b.early[tid] = false
	b.final[tid] = nil
	b.results[tid] = r
	b.tstats[tid].unexpected++
	b.done.complete(tid)
	return r, false
}

// Finish retires the block; see FinishInto.
func (b *Block) Finish() { b.finishInto(nil) }

// FinishInto retires the block and copies its settled results into out
// (len(out) >= n), in thread order. Retirement waits until every
// lower-sequence block has retired, validates all provisional results
// (redoing searches that lost to cross-block steals or raced posts),
// publishes unexpected messages to the store, sweeps consumed descriptors
// out of their chains, folds statistics, advances the retire frontier, and
// finally runs the Deliver callback for deferred results.
func (b *Block) FinishInto(out []Result) { b.finishInto(out) }

func (b *Block) finishInto(out []Result) {
	m := b.m
	r := &m.ring

	// In-order retirement: wait for the retire frontier to reach this block.
	r.mu.Lock()
	for r.retired+1 != b.seq {
		r.cond.Wait()
	}
	r.mu.Unlock()

	b.validate()

	// Sweep: unlink consumed descriptors (the deferred half of lazy
	// removal) under their bucket locks; retire queues their slots.
	var swept [MaxBlockSize]int32
	reaped := 0
	for tid := 0; tid < b.n; tid++ {
		if d := b.final[tid]; d != nil {
			swept[reaped] = sweep(d)
			reaped++
		}
	}

	var agg threadStats
	for tid := 0; tid < b.n; tid++ {
		ts := &b.tstats[tid]
		agg.traversed += ts.traversed
		agg.optimistic += ts.optimistic
		agg.relaxed += ts.relaxed
		agg.conflicts += ts.conflicts
		agg.fastPath += ts.fastPath
		agg.slowPath += ts.slowPath
		agg.unexpected += ts.unexpected
		agg.matched += ts.matched
		agg.revalidated += ts.revalidated
		agg.steals += ts.steals
		if ts.maxDepth > agg.maxDepth {
			agg.maxDepth = ts.maxDepth
		}
	}

	if out != nil {
		copy(out, b.results[:b.n])
	}

	// Snapshot everything deferred delivery needs BEFORE retiring: once the
	// frontier advances, K-1 more retirements can recycle this slot for
	// block seq+K while the deliveries below still run.
	n := b.n
	deliver := b.Deliver
	var dres [MaxBlockSize]Result
	var dearly [MaxBlockSize]bool
	if deliver != nil {
		copy(dres[:n], b.results[:n])
		copy(dearly[:n], b.early[:n])
	}

	m.retire(b.launch, n, &agg, swept[:reaped])

	// Deferred delivery: results that could not commit at Match time reach
	// their consumer here, outside all engine locks, in thread order.
	if deliver != nil {
		for tid := 0; tid < n; tid++ {
			if !dearly[tid] {
				deliver(tid, dres[tid])
			}
		}
	}
}

// sweep unlinks a consumed descriptor from its chain under the bucket's
// remove lock and marks it free; retire queues the returned slot, whose
// reuse is gated on the blocks then in flight — they may still be traversing
// the chain the descriptor was just unlinked from. recv is deliberately NOT
// cleared: a higher in-flight block that was just robbed of d may still read
// it for a provisional result (re-derived at its own retirement), and the
// next allocation's field writes are ordered behind that block's retirement
// by the reclaim gate.
func sweep(d *descriptor) int32 {
	d.owner.mu.Lock()
	unlink(d)
	d.owner.mu.Unlock()
	d.word.Store(stateFree)
	return d.slot
}

// retire ends block l of n messages: it cuts the retire record and then, in
// one ring.mu section, counts the block's statistics, queues the slots its
// sweep unlinked and advances the frontier, waking the next block's Finish
// and any BeginBlock waiting for a ring slot. Nothing of the block may be
// read afterwards: K-1 further retirements can recycle its ring slot.
func (m *OptimisticMatcher) retire(l launch, n int, agg *threadStats, swept []int32) {
	if o := m.obs.Load(); o.Enabled() {
		// Settle events only carry information when validation actually
		// redid something; the conflict-free common case skips the ring
		// write (the per-block launch/retire span is recorded regardless).
		if agg.revalidated > 0 {
			o.Event(obs.EvBlockSettle, 0, l.seq, agg.revalidated, 0)
		}
		now := o.Now()
		life := uint64(now - l.startNano)
		o.EventAt(now, obs.EvBlockRetire, 0, l.seq, uint64(n), life)
		o.Observe(obs.HistBlockNs, life)
	} else if l.startNano != 0 {
		o.Observe(obs.HistBlockNs, uint64(o.Now()-l.startNano))
	}

	r := &m.ring
	r.mu.Lock()
	c := &r.ctr
	c[obs.CtrOptimistic] += agg.optimistic
	c[obs.CtrConflicts] += agg.conflicts
	c[obs.CtrFastPath] += agg.fastPath
	c[obs.CtrSlowPath] += agg.slowPath
	c[obs.CtrUnexpected] += agg.unexpected
	c[obs.CtrRelaxed] += agg.relaxed
	c[obs.CtrLazyReaped] += uint64(len(swept))
	c[obs.CtrRevalidated] += agg.revalidated
	c[obs.CtrSteals] += agg.steals
	c[obs.CtrLazySweeps]++
	c[obs.CtrArriveSearches] += uint64(n)
	c[obs.CtrArriveTraversed] += agg.traversed
	c[obs.CtrArriveMaxDepth] = max(c[obs.CtrArriveMaxDepth], agg.maxDepth)
	c[obs.CtrMatched] += agg.matched
	c[obs.CtrUnexpectedStored] += agg.unexpected
	c[obs.CtrRetires]++
	m.table.releaseLocked(swept)
	r.retired = l.seq
	r.cond.Broadcast()
	r.mu.Unlock()
}

// validate settles every provisional result under the store lock, which
// freezes the post side. The redo horizon is the CURRENT watermark — at this
// point the block is the oldest in flight, so its serialization point is
// now, and all published posts are fair game. The redos and the store
// insertions happen atomically with respect to PostRecv, so either a post
// sees the stored message or the message's redo sees the post.
//
// A head-at-start block's pairings committed at Match time; only unexpected
// verdicts can be overturned, by posts that raced the block. Any other block
// ran while lower-sequence blocks were in flight, so its matched receives
// may have been stolen since — and a steal invalidates not just the robbed
// thread's pairing but potentially the whole block's ordering (the receive
// the robbed message should now take may be held by a same-block HIGHER
// thread). Those blocks settle by re-derivation: release every provisional
// hold, then reassign threads in thread order, each taking the oldest
// available receive — exactly the serial semantics retirement order promises.
func (b *Block) validate() {
	m := b.m
	s := m.unexpected
	s.mu.Lock()
	defer s.mu.Unlock()
	hzn := m.postHorizon.Load()

	if b.headAtStart {
		for tid := 0; tid < b.n; tid++ {
			res := &b.results[tid]
			if !res.Unexpected {
				continue // committed at Match time
			}
			// Posts that raced this block may have published a matching
			// receive the thread's bounded search could not see.
			if hzn != b.horizon {
				b.tstats[tid].revalidated++
				if nd := b.m.claimOldest(res.Env, tid, b.seq, hzn, &b.tstats[tid]); nd != nil {
					b.tstats[tid].unexpected--
					b.tstats[tid].matched++
					b.final[tid] = nd
					*res = Result{Env: res.Env, Recv: nd.recv, Path: PathSlow}
					continue
				}
			}
			b.m.publishUnexpected(res.Env, b.seq)
		}
		return
	}

	// Re-derivation. Pass 1: release the holds this block still owns (a
	// concurrent higher-sequence block may re-consume one, but such a hold is
	// stealable and pass 2 takes it back).
	for tid := 0; tid < b.n; tid++ {
		if d := b.final[tid]; d != nil && d.ownedBy(b.seq, tid) {
			d.markPosted()
		}
	}
	// Pass 2: reassign in thread order.
	for tid := 0; tid < b.n; tid++ {
		res := &b.results[tid]
		old := b.final[tid]
		nd := b.m.claimOldest(res.Env, tid, b.seq, hzn, &b.tstats[tid])
		if nd != old {
			b.tstats[tid].revalidated++
		}
		b.final[tid] = nd
		switch {
		case nd != nil && !res.Unexpected:
			if nd != old {
				res.Recv = nd.recv
				res.Path = PathSlow
			}
		case nd != nil: // unexpected verdict overturned
			b.tstats[tid].unexpected--
			b.tstats[tid].matched++
			*res = Result{Env: res.Env, Recv: nd.recv, Path: PathSlow}
		case !res.Unexpected: // robbed, with nothing left to take
			b.tstats[tid].matched--
			b.tstats[tid].unexpected++
			*res = Result{Env: res.Env, Unexpected: true, Path: PathSlow}
			b.m.publishUnexpected(res.Env, b.seq)
		default:
			b.m.publishUnexpected(res.Env, b.seq)
		}
	}
}

// publishUnexpected runs the engine hook and stores a message of block seq.
// Caller holds the store lock.
func (m *OptimisticMatcher) publishUnexpected(env *match.Envelope, seq uint64) {
	if h := m.onUnexpected; h != nil {
		h(env)
	}
	m.unexpected.insertLocked(env)
	if o := m.obs.Load(); o.Enabled() {
		o.Event(obs.EvUnexpectedPub, 0, seq, 0, 0)
	}
}

// searchOldest performs the §III-C cross-index search on behalf of thread
// tid of block seq: each index yields its oldest matching available receive
// below watermark hzn, and the global minimum posting label wins
// (constraint C1 across indexes). Hash values come from the sender-computed
// header (§IV-D inline hashes) when the envelope carries one, and are
// otherwise computed per index searched: an index no receive was ever
// posted to (recvIndex.used) holds nothing below any watermark, so it costs
// neither a hash nor a bucket load.
func (m *OptimisticMatcher) searchOldest(env *match.Envelope, tid int, seq uint64, hzn uint64, earlyCheck bool, st *threadStats) *descriptor {
	var best *descriptor
	var traversed uint64

	consider := func(d *descriptor, n uint64) {
		traversed += n
		if d != nil && (best == nil || d.label < best.label) {
			best = d
		}
	}
	// Communicator assertions (§VII) prune entire wildcard indexes: a
	// no_any_source communicator can never have a receive in the source-
	// wildcard index, so its messages skip that search.
	hints := m.hints.get(env.Comm)
	var h match.InlineHashes
	inline := env.Inline != nil
	if inline {
		h = *env.Inline // sender-computed, carried in the header
	}
	if m.idxFull.used.Load() {
		if !inline {
			h.SrcTag = match.HashSrcTag(env.Source, env.Tag, env.Comm)
		}
		consider(m.idxFull.search(env, h.SrcTag, tid, seq, hzn, earlyCheck))
	}
	if !hints.NoAnySource && m.idxSrcWild.used.Load() {
		if !inline {
			h.Tag = match.HashTag(env.Tag, env.Comm)
		}
		consider(m.idxSrcWild.search(env, h.Tag, tid, seq, hzn, earlyCheck))
	}
	if !hints.NoAnyTag && m.idxTagWild.used.Load() {
		if !inline {
			h.Src = match.HashSrc(env.Source, env.Comm)
		}
		consider(m.idxTagWild.search(env, h.Src, tid, seq, hzn, earlyCheck))
	}
	if !hints.NoWildcards() && m.idxBoth.used.Load() {
		consider(m.idxBoth.search(env, 0, tid, seq, hzn, earlyCheck))
	}

	if st != nil {
		st.traversed += traversed
		if traversed > st.maxDepth {
			st.maxDepth = traversed
		}
	}
	return best
}

// lowestBit returns the index of the lowest set bit, or 64 when v is 0.
func lowestBit(v uint32) int {
	if v == 0 {
		return 64
	}
	return bits.TrailingZeros32(v)
}

// ArriveBlock matches a batch of messages, processing them in sequential
// parallel chunks of at most BlockSize, and returns one Result per message
// in input order. Envelopes without a sequence number are assigned one in
// input order, which is taken as arrival order.
func (m *OptimisticMatcher) ArriveBlock(envs []*match.Envelope) []Result {
	out := make([]Result, len(envs))
	rest := out
	for len(envs) > 0 {
		n := len(envs)
		if n > m.cfg.BlockSize {
			n = m.cfg.BlockSize
		}
		chunk := envs[:n]
		envs = envs[n:]
		res := rest[:n]
		rest = rest[n:]

		b := m.BeginBlock(n)
		var wg sync.WaitGroup
		wg.Add(n)
		for tid := 0; tid < n; tid++ {
			go func(tid int) {
				defer wg.Done()
				b.Match(tid, chunk[tid])
			}(tid)
		}
		wg.Wait()
		b.FinishInto(res)
	}
	return out
}

// Arrive matches a single message: a block of one. Everything the block
// protocol adds to a plain search — booking, the partial barrier, conflict
// resolution — concerns a message's peers, and a block of one has none; what
// remains of validate for a block at the head of the retire frontier is the
// unexpected re-search. So when no lower-sequence block is in flight Arrive
// runs the block path with n = 1 folded (arriveHead). Only a lower block
// still in flight sends the message down BeginBlock(1): its result is then
// provisional until that block retires, which is what a Block is for.
func (m *OptimisticMatcher) Arrive(env *match.Envelope) Result {
	r := &m.ring
	r.mu.Lock()
	if r.retired+1 != r.next {
		r.mu.Unlock()
		var out [1]Result
		b := m.BeginBlock(1)
		b.Match(0, env)
		b.FinishInto(out[:])
		return out[0]
	}
	l := m.launchLocked(1)
	r.mu.Unlock()
	m.traceLaunch(&l, 1)
	return m.arriveHead(env, l)
}

// arriveHead is Match(0) and FinishInto for a one-message block that began
// at the head of the retire frontier (l.headAtStart). Its claim needs no
// booking — no lower thread or block exists to defer to, and a higher block
// that got to the receive first holds it only provisionally, so consume
// steals it back — and a matched result needs no validate: it committed at
// claim time, as every head block's does. An unexpected verdict is settled
// exactly as validate settles it, under the store lock against the current
// watermark.
func (m *OptimisticMatcher) arriveHead(env *match.Envelope, l launch) Result {
	if env.Seq == 0 {
		env.Seq = l.seqBase + 1
	}
	var st threadStats
	res := Result{Env: env, Path: PathOptimistic}

	d := m.claimOldest(env, 0, l.seq, l.horizon, &st)
	switch {
	case m.hints.get(env.Comm).AllowOvertaking:
		st.relaxed++
	case d != nil:
		st.optimistic++
	}
	if d == nil {
		s := m.unexpected
		s.mu.Lock()
		// Posts that raced the arrival may have published a matching
		// receive the bounded search could not see.
		if hzn := m.postHorizon.Load(); hzn != l.horizon {
			st.revalidated++
			d = m.claimOldest(env, 0, l.seq, hzn, &st)
			res.Path = PathSlow
		}
		if d == nil {
			m.publishUnexpected(env, l.seq)
			st.unexpected++
			res.Unexpected, res.Path = true, PathUnexpected
		}
		s.mu.Unlock()
	}

	var swept [1]int32
	reaped := 0
	if d != nil {
		res.Recv = d.recv
		st.matched++
		swept[0] = sweep(d)
		reaped = 1
	}
	m.retire(l, 1, &st, swept[:reaped])
	return res
}

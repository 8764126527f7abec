// Package core implements Optimistic Tag Matching, the paper's primary
// contribution: a bin-based MPI message-matching engine designed for
// lightweight, highly parallel on-NIC accelerators such as the BlueField-3
// Data Path Accelerator.
//
// Posted receives are split across four indexes according to the wildcards
// they use (§III-B): a (source,tag)-keyed hash table, a tag-keyed table for
// AnySource receives, a source-keyed table for AnyTag receives, and a
// posting-ordered list for receives with both wildcards. Every receive
// carries a monotonically increasing posting label (for constraint C1
// across indexes) and a compatible-sequence ID (for the fast conflict-
// resolution path).
//
// Incoming messages are processed in blocks of up to N consecutive messages
// by N parallel threads (§III-A). Each thread matches its message
// optimistically — as if alone — then books its candidate receive in the
// receive's booking bitmap, synchronizes on a partial barrier with all
// lower-numbered threads (§III-D1), and checks for conflicts (§III-D2).
// Conflicts are resolved either on the fast path — when all threads booked
// the head of a sequence of compatible receives, thread i simply shifts to
// the receive i positions later in the sequence (§III-D3a) — or on the slow
// path, where thread i waits for thread i−1 to finalize and then redoes the
// search (§III-D3b).
//
// Up to Config.InFlightBlocks arrival blocks run CONCURRENTLY, and posts
// proceed in parallel with them (DESIGN.md §9). Blocks carry monotone
// sequence numbers and retire in order; a block's provisional matches are
// validated at retirement, when every lower-sequence block has committed,
// which is what preserves the C1/C2 ordering constraints. Cross-block
// conflicts resolve through a steal protocol on the descriptor's packed
// ownership word: a lower-sequence block takes a receive back from a
// higher-sequence block that provisionally consumed it, and the victim
// redoes its search when it revalidates. Posts serialize only against each
// other (on the unexpected store's lock) and publish new receives with an
// ordered label watermark, so arrival blocks and PostRecv never exclude one
// another.
//
// Unexpected messages are stored in a mirror set of indexes, with each
// message indexed in all four structures so that a newly posted receive
// needs to search only the one index matching its wildcard class (§IV-C).
//
// The three §IV-D optimizations — inline hash values, the early booking
// check, and lazy removal — are implemented and individually switchable for
// ablation.
package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/match"
	"repro/internal/obs"
)

// MaxBlockSize is the largest supported matching block (the paper's
// prototype uses 32 threads, "limited by the bookkeeping bitmap size").
const MaxBlockSize = 32

// MaxInFlightBlocks is the largest supported in-flight block window, fixed
// by the per-descriptor booking array (one epoch-tagged bitmap word per
// block ring slot). 8 blocks × 32 threads matches the BF3 DPA's 256
// hardware threads.
const MaxInFlightBlocks = 8

// Model byte costs from §IV-E, used for DPA memory budgeting.
const (
	// BinModelBytes is the accounted size of one bin: a 4-byte remove lock
	// plus head and tail pointers (8 bytes each).
	BinModelBytes = 20
	// DescriptorModelBytes is the accounted size of one receive descriptor.
	DescriptorModelBytes = 64
	// IndexTables is the number of binned hash tables (the both-wildcard
	// class is a plain list and has no bins).
	IndexTables = 3
)

// ErrTableFull is returned by PostRecv when the descriptor table is
// exhausted; per §III-B the application must then fall back to software
// (host) tag matching.
var ErrTableFull = errors.New("core: receive descriptor table full")

// Config parameterizes an OptimisticMatcher.
type Config struct {
	// Bins is the number of buckets in each of the three hash tables.
	// One bin degenerates to traditional list search.
	Bins int
	// MaxReceives is the descriptor-table capacity: the maximum number of
	// receives posted at the same time (§III-B).
	MaxReceives int
	// BlockSize is N, the number of messages matched in parallel
	// (1..MaxBlockSize).
	BlockSize int
	// InFlightBlocks is K, the number of arrival blocks that may be in
	// flight concurrently (1..MaxInFlightBlocks; 0 normalizes to 1).
	// K = 1, the default, serializes blocks exactly as the original engine
	// did. Higher depths overlap block k+1's matching with block k's;
	// cross-block conflicts are resolved by the ownership steal protocol and
	// in-order retirement (DESIGN.md §9).
	InFlightBlocks int

	// EarlyBookingCheck enables the §IV-D optimization that skips, during
	// the optimistic search, receives already booked by a lower thread.
	EarlyBookingCheck bool
	// DisableFastPath forces every conflict onto the slow path; used by the
	// Figure 8 "with-conflict, slow path" scenario and by ablations.
	DisableFastPath bool
	// SimultaneousArrival models the DPA's simultaneous handler activation
	// on a message burst: every thread completes its optimistic search and
	// booking before any thread moves to conflict detection (Resolve waits
	// for the whole block's bookings, a full barrier instead of the partial
	// one). Without it a thread may resolve, and consume its receive, while
	// higher threads have yet to book, so whether the
	// all-threads-booked-the-same-receive precondition of the fast path
	// forms depends on the schedule. The partial barrier remains the
	// default, as in the paper.
	SimultaneousArrival bool
}

// DefaultConfig mirrors the paper's prototype configuration (§VI): hash
// tables sized at twice the maximum number of in-flight receives, 1024
// in-flight receives, 32 threads, all optimizations on, one block in flight.
func DefaultConfig() Config {
	return Config{
		Bins:              2048,
		MaxReceives:       1024,
		BlockSize:         32,
		InFlightBlocks:    1,
		EarlyBookingCheck: true,
	}
}

// validate normalizes cfg and reports configuration errors.
func (cfg *Config) validate() error {
	if cfg.Bins < 1 {
		return fmt.Errorf("core: Bins must be >= 1, got %d", cfg.Bins)
	}
	if cfg.MaxReceives < 1 {
		return fmt.Errorf("core: MaxReceives must be >= 1, got %d", cfg.MaxReceives)
	}
	if cfg.BlockSize < 1 || cfg.BlockSize > MaxBlockSize {
		return fmt.Errorf("core: BlockSize must be in [1,%d], got %d", MaxBlockSize, cfg.BlockSize)
	}
	if cfg.InFlightBlocks == 0 {
		cfg.InFlightBlocks = 1
	}
	if cfg.InFlightBlocks < 1 || cfg.InFlightBlocks > MaxInFlightBlocks {
		return fmt.Errorf("core: InFlightBlocks must be in [1,%d], got %d", MaxInFlightBlocks, cfg.InFlightBlocks)
	}
	return nil
}

// blockRing bounds and orders the in-flight arrival blocks. Block sequence
// numbers are monotone from 1; at most len(slots) blocks run between the
// assignment point (next) and the retire frontier (retired). Blocks recycle
// ring slots, so a saturated pipeline allocates nothing per block.
type blockRing struct {
	mu   sync.Mutex
	cond *sync.Cond

	slots   []Block
	next    uint64 // next block sequence to assign (starts at 1)
	retired uint64 // highest retired block sequence; blocks retire in order

	ctr counterBlock // the arrival side's counts: launch and retire hold mu anyway
}

// counterBlock holds deltas of the matcher-owned counters (obs.CtrBlocks
// through obs.CtrQueued) as plain words under one of the matcher's two
// locks: one block per side, so CtrMatched has an addend in each.
type counterBlock [obs.CtrQueued + 1]uint64

// foldInto carries the deltas to the sink's atomics and zeroes them. The
// caller holds the lock that guards b.
func (b *counterBlock) foldInto(c *obs.CounterSet) {
	for i, v := range b {
		if ctr := obs.Counter(i); ctr == obs.CtrPostMaxDepth || ctr == obs.CtrArriveMaxDepth {
			c.Max(ctr, v)
		} else {
			c.Add(ctr, v) // a zero delta is a branch
		}
		b[i] = 0
	}
}

// OptimisticMatcher is the offloaded matching engine. Arrival blocks (up to
// Config.InFlightBlocks of them) and host-side posts all run concurrently;
// within a block up to BlockSize threads match concurrently.
type OptimisticMatcher struct {
	cfg Config

	table *descriptorTable

	// Posted-receive indexes, one per wildcard class (§III-B).
	idxFull    *recvIndex // key (source, tag, comm)
	idxSrcWild *recvIndex // key (tag, comm)
	idxTagWild *recvIndex // key (source, comm)
	idxBoth    *recvIndex // single chain, posting order

	unexpected *unexpectedStore

	// Post-side state, guarded by unexpected.mu — the post serialization
	// point (see unexpectedStore): sequencing, and the post side's counts.
	nextLabel uint64
	nextSeqID uint64
	lastPost  postKey
	havePost  bool
	postCtr   counterBlock
	postDepth obs.HistDelta

	// postHorizon is the ordered-publish watermark: every receive with a
	// label below it is fully indexed and visible. It advances under
	// unexpected.mu after each post completes, and arrival blocks snapshot
	// it at BeginBlock — a block never half-sees a post.
	postHorizon atomic.Uint64

	nextSeq uint64 // arrival sequence for envelopes lacking one (ring.mu)

	ring  blockRing
	hints hintTable

	// barrierSpins is the atomic barrier's busy-poll budget, fixed at
	// construction from the scheduler width (barrierSpinBudget).
	barrierSpins int

	// onUnexpected, when set, runs exactly once per unexpected message,
	// under the store lock, immediately before the message is published to
	// the unexpected store — i.e. before any concurrent post can take it.
	// The offload engine uses it to stabilize eager payloads out of the
	// bounce buffer.
	onUnexpected func(*match.Envelope)

	// obs is the observability sink: engine and search-depth statistics
	// reach its enum-indexed atomic counters through fold, which the sink
	// runs for every reader (DESIGN.md §10), and lifecycle events go to its
	// ring buffers when tracing is enabled. It is the one SetObs installed
	// or, failing that, a counters-only sink the first reader builds (Obs);
	// until then it is nil, which the event calls of the hot paths treat as
	// tracing off, and the counts wait in the plain words.
	obs atomic.Pointer[obs.Sink]
}

// postKey is the compatibility key of §III-D3a: consecutive receives with
// equal keys form a sequence of compatible receives.
type postKey struct {
	src  match.Rank
	tag  match.Tag
	comm match.CommID
}

// New returns a matcher for cfg.
func New(cfg Config) (*OptimisticMatcher, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	m := &OptimisticMatcher{
		cfg:        cfg,
		idxFull:    newRecvIndex(cfg.Bins),
		idxSrcWild: newRecvIndex(cfg.Bins),
		idxTagWild: newRecvIndex(cfg.Bins),
		idxBoth:    newRecvIndex(1),
		unexpected: newUnexpectedStore(cfg.Bins),

		barrierSpins: barrierSpinBudget(),
	}
	m.table = newDescriptorTable(cfg.MaxReceives, &m.ring)
	m.ring.slots = make([]Block, cfg.InFlightBlocks)
	m.ring.next = 1
	m.ring.cond = sync.NewCond(&m.ring.mu)
	return m, nil
}

// MustNew is New for configurations known to be valid; it panics on error.
func MustNew(cfg Config) *OptimisticMatcher {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Config returns the matcher's configuration.
func (m *OptimisticMatcher) Config() Config { return m.cfg }

// SetObs replaces the matcher's observability sink, redirecting its
// counters (the matcher's fold is registered on it) and, when the sink has
// tracing enabled, its lifecycle events. Install it before any traffic; a
// nil sink is ignored. Counters already accumulated in the previous sink
// are not migrated.
func (m *OptimisticMatcher) SetObs(s *obs.Sink) {
	if s != nil {
		s.OnFold(m)
		m.obs.Store(s)
	}
}

// Fold carries both sides' counts to the sink, one lock section each. The
// sink runs it for every reader (obs.OnFold), so what was counted under
// either lock before a reader began is in what the reader sees. With no
// sink yet the counts stay where they are.
func (m *OptimisticMatcher) Fold() {
	s := m.obs.Load()
	if s == nil {
		return
	}
	m.ring.mu.Lock()
	m.ring.ctr.foldInto(&s.Counters)
	m.ring.mu.Unlock()
	m.unexpected.mu.Lock()
	m.postCtr.foldInto(&s.Counters)
	s.MergeHist(obs.HistPostDepth, &m.postDepth)
	m.unexpected.mu.Unlock()
}

// Obs returns the matcher's observability sink, building a counters-only
// one if none was installed: a matcher nobody reads (a world's, whose
// rank sink SetObs installs) never pays for it. Never nil.
func (m *OptimisticMatcher) Obs() *obs.Sink {
	if s := m.obs.Load(); s != nil {
		return s
	}
	s := obs.New(obs.Options{})
	s.OnFold(m)
	if !m.obs.CompareAndSwap(nil, s) {
		return m.obs.Load() // another reader built one first; s is garbage
	}
	return s
}

// SetUnexpectedHook installs a callback invoked exactly once per unexpected
// message, under the store lock, right before the message becomes visible to
// posts. Install it before any arrivals; a nil hook disables it. The hook
// must not read the matcher's statistics or its sink: the fold takes the lock.
func (m *OptimisticMatcher) SetUnexpectedHook(fn func(*match.Envelope)) {
	m.onUnexpected = fn
}

// indexFor returns the posted-receive index for a wildcard class.
func (m *OptimisticMatcher) indexFor(c match.WildcardClass) *recvIndex {
	switch c {
	case match.ClassNone:
		return m.idxFull
	case match.ClassSrcWild:
		return m.idxSrcWild
	case match.ClassTagWild:
		return m.idxTagWild
	default:
		return m.idxBoth
	}
}

// keyHashFor returns the index hash for a receive of class c.
func keyHashFor(c match.WildcardClass, src match.Rank, tag match.Tag, comm match.CommID) uint64 {
	switch c {
	case match.ClassNone:
		return match.HashSrcTag(src, tag, comm)
	case match.ClassSrcWild:
		return match.HashTag(tag, comm)
	case match.ClassTagWild:
		return match.HashSrc(src, comm)
	default:
		return 0
	}
}

// PostRecv presents a receive to the engine (the host → DPA command of
// §IV-E). If a stored unexpected message matches, it is returned; otherwise
// the receive is indexed. ErrTableFull signals that the caller must fall
// back to software matching.
//
// Posts serialize against each other on the store lock but run concurrently
// with arrival blocks: the descriptor is fully linked before the label
// watermark advances past it, and blocks only look below their watermark
// snapshot, so a block either sees the whole post or none of it.
func (m *OptimisticMatcher) PostRecv(r *match.Recv) (*match.Envelope, bool, error) {
	if err := m.checkHints(r); err != nil {
		return nil, false, err
	}

	s := m.unexpected
	s.mu.Lock()

	r.Label = m.nextLabel
	m.nextLabel++

	key := postKey{r.Source, r.Tag, r.Comm}
	if !m.havePost || key != m.lastPost {
		m.nextSeqID++
	}
	m.lastPost, m.havePost = key, true

	// Check the unexpected store first (§IV-C): only the index matching the
	// receive's wildcard class needs searching, because every unexpected
	// message is indexed in all four structures.
	class := r.Class()
	hash := keyHashFor(class, r.Source, r.Tag, r.Comm)
	env, depth := s.takeMatchLocked(r, class, hash)
	c := &m.postCtr
	c[obs.CtrPostSearches]++
	c[obs.CtrPostTraversed] += depth
	c[obs.CtrPostMaxDepth] = max(c[obs.CtrPostMaxDepth], depth)
	m.postDepth.Observe(depth)
	if env != nil {
		c[obs.CtrMatched]++
		if o := m.obs.Load(); o.Enabled() {
			o.Event(obs.EvPostMatch, 0, r.Label, depth, 0)
		}
		m.postHorizon.Store(r.Label + 1)
		s.mu.Unlock()
		return env, true, nil
	}

	d := m.table.alloc()
	if d == nil {
		c[obs.CtrTableFull]++
		// The label is spent even on failure, so the watermark still moves.
		m.postHorizon.Store(r.Label + 1)
		s.mu.Unlock()
		return nil, false, ErrTableFull
	}
	d.recv = r
	d.src, d.tag, d.comm = r.Source, r.Tag, r.Comm
	d.class = class
	d.label = r.Label
	d.seqID = m.nextSeqID
	// The words are epoch-tagged, so a stale one is harmless until its epoch
	// comes round again; clearing keeps that from ever mattering. Nearly all
	// are already zero: a load each, not an exchange.
	for i := range d.booking {
		if d.booking[i].Load() != 0 {
			d.booking[i].Store(0)
		}
	}
	d.markPosted()

	m.indexFor(class).insert(d, hash)
	c[obs.CtrQueued]++
	// Ordered publish: advance the watermark only after the descriptor is
	// fully linked. The store is still locked, so watermark advances are
	// monotone.
	m.postHorizon.Store(r.Label + 1)
	s.mu.Unlock()
	return nil, false, nil
}

// PeekUnexpected reports whether a stored unexpected message matches r,
// without consuming it — the engine-side primitive behind MPI_Probe and
// MPI_Iprobe. The store is self-locking; arrival blocks are not excluded.
func (m *OptimisticMatcher) PeekUnexpected(r *match.Recv) (match.Probed, bool) {
	return m.unexpected.peek(r)
}

// PostedDepth returns the number of live posted receives: descriptors
// allocated (frozen by the post lock) less descriptors retired (ring.mu), so
// it is exact for some instant and within [0, MaxReceives]. A receive
// consumed by a block still in flight counts until the block retires.
func (m *OptimisticMatcher) PostedDepth() int {
	m.unexpected.mu.Lock()
	defer m.unexpected.mu.Unlock()
	m.ring.mu.Lock()
	defer m.ring.mu.Unlock()
	return int(m.table.allocs - m.table.vacated)
}

// UnexpectedDepth returns the number of stored unexpected messages. The
// store is self-locking.
func (m *OptimisticMatcher) UnexpectedDepth() int {
	return m.unexpected.len()
}

// DepthStats returns cumulative search-depth statistics comparable with the
// baselines' match.Stats. The snapshot folds and then reads the sink's
// atomic counters; individual fields are each coherent but the snapshot as a
// whole may interleave with a concurrent block.
func (m *OptimisticMatcher) DepthStats() match.Stats {
	o := m.Obs()
	o.Fold()
	c := &o.Counters
	return match.Stats{
		PostSearches:    c.Load(obs.CtrPostSearches),
		PostTraversed:   c.Load(obs.CtrPostTraversed),
		PostMaxDepth:    c.Load(obs.CtrPostMaxDepth),
		ArriveSearches:  c.Load(obs.CtrArriveSearches),
		ArriveTraversed: c.Load(obs.CtrArriveTraversed),
		ArriveMaxDepth:  c.Load(obs.CtrArriveMaxDepth),
		Matched:         c.Load(obs.CtrMatched),
		Unexpected:      c.Load(obs.CtrUnexpectedStored),
		Queued:          c.Load(obs.CtrQueued),
	}
}

// ResetDepthStats zeroes the search-depth statistics.
func (m *OptimisticMatcher) ResetDepthStats() {
	o := m.Obs()
	o.Fold()
	o.Counters.Reset(
		obs.CtrPostSearches, obs.CtrPostTraversed, obs.CtrPostMaxDepth,
		obs.CtrArriveSearches, obs.CtrArriveTraversed, obs.CtrArriveMaxDepth,
		obs.CtrMatched, obs.CtrUnexpectedStored, obs.CtrQueued,
	)
}

// EngineStats counts engine-internal events for benchmarks and ablations.
type EngineStats struct {
	Blocks      uint64 // arrival blocks processed
	Messages    uint64 // messages processed
	Optimistic  uint64 // messages finalized without conflict
	Conflicts   uint64 // messages that lost their booking
	FastPath    uint64 // conflicts resolved via the fast path
	SlowPath    uint64 // conflicts resolved via the slow path
	Unexpected  uint64 // messages stored as unexpected
	Relaxed     uint64 // messages matched under allow_overtaking hints
	TableFull   uint64 // posts rejected with ErrTableFull
	LazySweeps  uint64 // lazy-removal chain sweeps
	LazyReaped  uint64 // consumed entries unlinked by sweeps
	Revalidated uint64 // retirement-time redos (cross-block steals, raced posts)
	Steals      uint64 // descriptors stolen back from higher-sequence blocks
	Retires     uint64 // arrival blocks retired (== Blocks once quiesced)
}

// Add folds t into s, field by field (TestEngineStatsAddCoversEveryField
// fails when a new field is left out).
func (s *EngineStats) Add(t EngineStats) {
	s.Blocks += t.Blocks
	s.Messages += t.Messages
	s.Optimistic += t.Optimistic
	s.Conflicts += t.Conflicts
	s.FastPath += t.FastPath
	s.SlowPath += t.SlowPath
	s.Unexpected += t.Unexpected
	s.Relaxed += t.Relaxed
	s.TableFull += t.TableFull
	s.LazySweeps += t.LazySweeps
	s.LazyReaped += t.LazyReaped
	s.Revalidated += t.Revalidated
	s.Steals += t.Steals
	s.Retires += t.Retires
}

// CheckQuiesced reports, by counter name, the first identity that the
// statistics of a quiesced matcher (or the sum over several) violate; d is
// the matching DepthStats. Every block begun has retired and swept exactly
// once, and every message was searched for once and stored at most once —
// whichever arrival path took it, so a path that drops a counter fails here
// by name. partition additionally requires every message to have exactly one
// of the four outcomes, which holds when none was relaxed and then stored,
// had an unexpected verdict overturned by a raced post, or took the slow
// path behind a lower thread's conflict without losing a booking itself.
func (s EngineStats) CheckQuiesced(d match.Stats, partition bool) error {
	for _, c := range []struct {
		name      string
		got, want uint64
	}{
		{"Retires vs Blocks", s.Retires, s.Blocks},
		{"LazySweeps vs Blocks", s.LazySweeps, s.Blocks},
		{"DepthStats.ArriveSearches vs Messages", d.ArriveSearches, s.Messages},
		{"DepthStats.Unexpected vs Unexpected", d.Unexpected, s.Unexpected},
	} {
		if c.got != c.want {
			return fmt.Errorf("core: %s: %d != %d (%+v)", c.name, c.got, c.want, s)
		}
	}
	if sum := s.Optimistic + s.Conflicts + s.Unexpected + s.Relaxed; partition && sum != s.Messages {
		return fmt.Errorf("core: Optimistic+Conflicts+Unexpected+Relaxed = %d, Messages = %d (%+v)", sum, s.Messages, s)
	}
	return nil
}

// Stats returns a snapshot of the engine statistics: a fold, then the
// sink's atomic counters. A block counts its messages when it launches, so
// an observer woken by a completion delivered mid-block already sees them.
func (m *OptimisticMatcher) Stats() EngineStats {
	o := m.Obs()
	o.Fold()
	c := &o.Counters
	return EngineStats{
		Blocks:      c.Load(obs.CtrBlocks),
		Messages:    c.Load(obs.CtrMessages),
		Optimistic:  c.Load(obs.CtrOptimistic),
		Conflicts:   c.Load(obs.CtrConflicts),
		FastPath:    c.Load(obs.CtrFastPath),
		SlowPath:    c.Load(obs.CtrSlowPath),
		Unexpected:  c.Load(obs.CtrUnexpected),
		Relaxed:     c.Load(obs.CtrRelaxed),
		TableFull:   c.Load(obs.CtrTableFull),
		LazySweeps:  c.Load(obs.CtrLazySweeps),
		LazyReaped:  c.Load(obs.CtrLazyReaped),
		Revalidated: c.Load(obs.CtrRevalidated),
		Steals:      c.Load(obs.CtrSteals),
		Retires:     c.Load(obs.CtrRetires),
	}
}

// ResetStats zeroes the engine statistics.
func (m *OptimisticMatcher) ResetStats() {
	o := m.Obs()
	o.Fold()
	o.Counters.Reset(
		obs.CtrBlocks, obs.CtrMessages, obs.CtrOptimistic,
		obs.CtrConflicts, obs.CtrFastPath, obs.CtrSlowPath,
		obs.CtrUnexpected, obs.CtrRelaxed, obs.CtrTableFull,
		obs.CtrLazySweeps, obs.CtrLazyReaped, obs.CtrRevalidated,
		obs.CtrSteals, obs.CtrRetires,
	)
}

// Footprint is the §IV-E DPA memory model of a configuration.
type Footprint struct {
	BinBytes        int // 3 tables × bins × 20 B
	DescriptorBytes int // MaxReceives × 64 B
}

// Total returns the total modeled bytes.
func (f Footprint) Total() int { return f.BinBytes + f.DescriptorBytes }

// Occupancy reports, across the three binned posted-receive indexes, the
// number of empty bins, the total bins, and the longest chain — the §V-A
// "percentage of empty bins per hash table" statistic. Bucket counters are
// atomic, so the snapshot never blocks (or is blocked by) an in-flight
// arrival block.
func (m *OptimisticMatcher) Occupancy() (empty, total, maxChain int) {
	for _, ix := range []*recvIndex{m.idxFull, m.idxSrcWild, m.idxTagWild} {
		e, mx := ix.occupancy()
		empty += e
		total += ix.bins()
		if mx > maxChain {
			maxChain = mx
		}
	}
	return empty, total, maxChain
}

// ModelFootprint computes the paper's memory model for this configuration.
func (m *OptimisticMatcher) ModelFootprint() Footprint {
	return Footprint{
		BinBytes:        IndexTables * m.cfg.Bins * BinModelBytes,
		DescriptorBytes: m.cfg.MaxReceives * DescriptorModelBytes,
	}
}

package obs

import "sync/atomic"

// Counter identifies one well-known counter in a CounterSet. Counters are
// enum-indexed into a flat atomic array so the recording path is a single
// indexed atomic add — no map lookup, no allocation, no lock.
//
// The set spans every layer of the stack: the optimistic matcher's engine
// and search-depth statistics (formerly core's private engineCounters and
// depthCounters), the reliability sublayer's repair tallies (formerly
// mpi.ReliabilityStats), the fabric's fault-injection tallies (formerly
// rdma.FaultStats), and the CQ-drain accounting of the arrival datapaths.
// Components share one CounterSet per observability domain (one per rank in
// an mpi.World, one per fabric) and write disjoint index ranges.
type Counter uint8

// Matching-engine counters (internal/core).
const (
	// CtrBlocks counts arrival blocks begun.
	CtrBlocks Counter = iota
	// CtrMessages counts messages entering arrival blocks.
	CtrMessages
	// CtrOptimistic counts messages finalized without conflict.
	CtrOptimistic
	// CtrConflicts counts messages that lost their booking (the paper's
	// "collisions").
	CtrConflicts
	// CtrFastPath counts conflicts resolved on the fast path (§III-D3a).
	CtrFastPath
	// CtrSlowPath counts conflicts resolved on the slow path (§III-D3b).
	CtrSlowPath
	// CtrUnexpected counts messages stored as unexpected.
	CtrUnexpected
	// CtrRelaxed counts messages matched under allow_overtaking hints.
	CtrRelaxed
	// CtrTableFull counts posts rejected with core.ErrTableFull.
	CtrTableFull
	// CtrLazySweeps counts lazy-removal chain sweeps.
	CtrLazySweeps
	// CtrLazyReaped counts consumed entries unlinked by sweeps.
	CtrLazyReaped
	// CtrRevalidated counts retirement-time redos (cross-block steals,
	// raced posts).
	CtrRevalidated
	// CtrSteals counts descriptors taken back from a higher-sequence block
	// through the ownership steal protocol (DESIGN.md §9).
	CtrSteals
	// CtrRetires counts arrival blocks retired (always equals CtrBlocks
	// once the engine quiesces).
	CtrRetires

	// Search-depth counters (the match.Stats quantities, Figure 7).

	// CtrPostSearches counts PostRecv searches of the unexpected store.
	CtrPostSearches
	// CtrPostTraversed totals unexpected entries examined across posts.
	CtrPostTraversed
	// CtrPostMaxDepth is the deepest single PostRecv search (max-merged).
	CtrPostMaxDepth
	// CtrArriveSearches counts arrival searches of the posted indexes.
	CtrArriveSearches
	// CtrArriveTraversed totals posted entries examined across arrivals.
	CtrArriveTraversed
	// CtrArriveMaxDepth is the deepest single arrival search (max-merged).
	CtrArriveMaxDepth
	// CtrMatched counts completed pairings (both directions).
	CtrMatched
	// CtrUnexpectedStored counts messages stored without a match.
	CtrUnexpectedStored
	// CtrQueued counts receives indexed without a match.
	CtrQueued

	// Reliability-sublayer counters (internal/mpi reliable.go).

	// CtrRelSent counts reliable messages first-sent.
	CtrRelSent
	// CtrRelRetransmits counts timeout-driven re-sends.
	CtrRelRetransmits
	// CtrRelAcked counts pending entries retired by a cumulative ack.
	CtrRelAcked
	// CtrRelSacks counts cumulative acks transmitted.
	CtrRelSacks
	// CtrRelDupDropped counts duplicate arrivals suppressed.
	CtrRelDupDropped
	// CtrRelOutOfOrder counts arrivals buffered for reordering.
	CtrRelOutOfOrder
	// CtrRelSendRNR counts sends refused by the fabric (retried later).
	CtrRelSendRNR

	// Fault-injection counters (internal/rdma fault.go).

	// CtrFaultDropped counts messages dropped on the wire.
	CtrFaultDropped
	// CtrFaultDuplicated counts messages delivered twice.
	CtrFaultDuplicated
	// CtrFaultDelayed counts messages held back and overtaken.
	CtrFaultDelayed
	// CtrFaultRNR counts receiver-not-ready NAKs injected.
	CtrFaultRNR
	// CtrFaultStalls counts send-pipeline stalls injected.
	CtrFaultStalls

	// Datapath counters (internal/dpa, internal/mpi engines).

	// CtrCQDrains counts CQ drain batches taken by an arrival loop.
	CtrCQDrains
	// CtrCQCompletions counts completions drained from the receive CQ.
	CtrCQCompletions

	// Eager-coalescing counters (internal/mpi coalesce.go): frames flushed
	// by each policy trigger. Frame widths are in HistCoalesceWidth.

	// CtrCoalesceFlushSize counts frames flushed by the byte threshold.
	CtrCoalesceFlushSize
	// CtrCoalesceFlushCount counts frames flushed by the message-count
	// threshold.
	CtrCoalesceFlushCount
	// CtrCoalesceFlushSync counts frames flushed at synchronization points
	// (Wait, Barrier, rendezvous, bypass sends, world drain).
	CtrCoalesceFlushSync
	// CtrCoalesceFlushTimeout counts frames flushed by the staleness timer.
	CtrCoalesceFlushTimeout

	// Analyzer counters (internal/analyzer).

	// CtrAnalyzerShards counts per-rank replay shards executed.
	CtrAnalyzerShards
	// CtrAnalyzerEvents counts trace events replayed.
	CtrAnalyzerEvents

	// Capacity-planner counters (internal/plan).

	// CtrPlanCandidates counts configurations priced by the planner.
	CtrPlanCandidates
	// CtrPlanRejected counts candidates rejected (over the memory budget or
	// infeasible posted-receive capacity).
	CtrPlanRejected
	// CtrPlanReplays counts analyzer replays the planner ran (one per
	// distinct bin count, not one per candidate).
	CtrPlanReplays

	// Network-transport counters (internal/rdma/netfabric): the socket
	// datapath of out-of-process worlds. They live in the transport's sink,
	// which takes the "fabric" slot of the world's export.

	// CtrNetTxFrames counts frames handed to the socket layer.
	CtrNetTxFrames
	// CtrNetTxBytes counts encoded frame bytes transmitted.
	CtrNetTxBytes
	// CtrNetRxFrames counts frames decoded off the socket.
	CtrNetRxFrames
	// CtrNetRxBytes counts encoded frame bytes received.
	CtrNetRxBytes
	// CtrNetFlushes counts writev flushes (one per batched net.Buffers
	// write of a TCP peer writer; one per datagram on UDP).
	CtrNetFlushes
	// CtrNetStalls counts sends that blocked on a saturated peer queue.
	CtrNetStalls
	// CtrNetReadReqs counts rendezvous read requests issued to peers.
	CtrNetReadReqs
	// CtrNetReadRetries counts read requests re-sent after a timeout
	// (UDP: the request or its response was lost).
	CtrNetReadRetries

	// Shared-memory transport counters (internal/rdma/netfabric shm.go):
	// the intra-node ring datapath. They share the "fabric" sink with the
	// socket counters (the hybrid transport increments both families).

	// CtrShmTxFrames counts frames staged into peer rings.
	CtrShmTxFrames
	// CtrShmTxBytes counts encoded frame bytes staged into peer rings.
	CtrShmTxBytes
	// CtrShmRxFrames counts frames consumed from inbound rings.
	CtrShmRxFrames
	// CtrShmRxBytes counts payload bytes consumed from inbound rings.
	CtrShmRxBytes
	// CtrShmSpinWakes counts waits resolved within the bounded busy-poll
	// budget (work arrived before the poller had to park).
	CtrShmSpinWakes
	// CtrShmParks counts spin-to-park transitions (the budget ran dry and
	// the waiter fell back to timed sleeps).
	CtrShmParks
	// CtrShmRingFull counts send-side stall episodes on a full ring.
	CtrShmRingFull
	// CtrShmReads counts zero-round-trip rendezvous reads copied straight
	// out of a same-host owner's memory (no READ RPC).
	CtrShmReads

	// Daemon counters (internal/daemon): the matchd control plane. They
	// live in the server's own sink (exported with component="daemon") and,
	// for per-job quantities, in each job's daemon-domain sink (exported
	// with per-tenant labels).

	// CtrDaemonSubmitted counts control-protocol job submissions received.
	CtrDaemonSubmitted
	// CtrDaemonAdmitted counts jobs admitted by the budget ledger.
	CtrDaemonAdmitted
	// CtrDaemonRejected counts submissions rejected (over budget, draining,
	// invalid spec, duplicate ID).
	CtrDaemonRejected
	// CtrDaemonCompleted counts jobs that finished successfully.
	CtrDaemonCompleted
	// CtrDaemonFailed counts jobs that finished with an error.
	CtrDaemonFailed
	// CtrDaemonCanceled counts jobs canceled by the control protocol or by
	// a forced shutdown.
	CtrDaemonCanceled
	// CtrDaemonBackpressure counts posted-receive pacing stalls: windows a
	// job had to split its receive burst into because the per-communicator
	// posted-depth bound was smaller than the burst.
	CtrDaemonBackpressure
	// CtrDaemonReloads counts hot config reloads applied (SIGHUP).
	CtrDaemonReloads
	// CtrDaemonBadRequests counts control-protocol lines answered with a
	// typed error reply.
	CtrDaemonBadRequests

	// NumCounters bounds the enum; it must stay last.
	NumCounters
)

// counterNames maps Counter values to stable snake_case snapshot keys.
var counterNames = [NumCounters]string{
	CtrBlocks:           "blocks",
	CtrMessages:         "messages",
	CtrOptimistic:       "optimistic",
	CtrConflicts:        "conflicts",
	CtrFastPath:         "fast_path",
	CtrSlowPath:         "slow_path",
	CtrUnexpected:       "unexpected",
	CtrRelaxed:          "relaxed",
	CtrTableFull:        "table_full",
	CtrLazySweeps:       "lazy_sweeps",
	CtrLazyReaped:       "lazy_reaped",
	CtrRevalidated:      "revalidated",
	CtrSteals:           "steals",
	CtrRetires:          "retires",
	CtrPostSearches:     "post_searches",
	CtrPostTraversed:    "post_traversed",
	CtrPostMaxDepth:     "post_max_depth",
	CtrArriveSearches:   "arrive_searches",
	CtrArriveTraversed:  "arrive_traversed",
	CtrArriveMaxDepth:   "arrive_max_depth",
	CtrMatched:          "matched",
	CtrUnexpectedStored: "unexpected_stored",
	CtrQueued:           "queued",
	CtrRelSent:          "rel_sent",
	CtrRelRetransmits:   "rel_retransmits",
	CtrRelAcked:         "rel_acked",
	CtrRelSacks:         "rel_sacks",
	CtrRelDupDropped:    "rel_dup_dropped",
	CtrRelOutOfOrder:    "rel_out_of_order",
	CtrRelSendRNR:       "rel_send_rnr",
	CtrFaultDropped:     "fault_dropped",
	CtrFaultDuplicated:  "fault_duplicated",
	CtrFaultDelayed:     "fault_delayed",
	CtrFaultRNR:         "fault_rnr",
	CtrFaultStalls:      "fault_stalls",
	CtrCQDrains:         "cq_drains",
	CtrCQCompletions:    "cq_completions",

	CtrCoalesceFlushSize:    "coalesce_flush_size",
	CtrCoalesceFlushCount:   "coalesce_flush_count",
	CtrCoalesceFlushSync:    "coalesce_flush_sync",
	CtrCoalesceFlushTimeout: "coalesce_flush_timeout",
	CtrAnalyzerShards:       "analyzer_shards",
	CtrAnalyzerEvents:       "analyzer_events",
	CtrPlanCandidates:       "plan_candidates",
	CtrPlanRejected:         "plan_rejected",
	CtrPlanReplays:          "plan_replays",
	CtrNetTxFrames:          "net_tx_frames",
	CtrNetTxBytes:           "net_tx_bytes",
	CtrNetRxFrames:          "net_rx_frames",
	CtrNetRxBytes:           "net_rx_bytes",
	CtrNetFlushes:           "net_flushes",
	CtrNetStalls:            "net_stalls",
	CtrNetReadReqs:          "net_read_reqs",
	CtrNetReadRetries:       "net_read_retries",
	CtrShmTxFrames:          "shm_tx_frames",
	CtrShmTxBytes:           "shm_tx_bytes",
	CtrShmRxFrames:          "shm_rx_frames",
	CtrShmRxBytes:           "shm_rx_bytes",
	CtrShmSpinWakes:         "shm_spin_wakes",
	CtrShmParks:             "shm_parks",
	CtrShmRingFull:          "shm_ring_full",
	CtrShmReads:             "shm_reads",
	CtrDaemonSubmitted:      "daemon_submitted",
	CtrDaemonAdmitted:       "daemon_admitted",
	CtrDaemonRejected:       "daemon_rejected",
	CtrDaemonCompleted:      "daemon_completed",
	CtrDaemonFailed:         "daemon_failed",
	CtrDaemonCanceled:       "daemon_canceled",
	CtrDaemonBackpressure:   "daemon_backpressure_waits",
	CtrDaemonReloads:        "daemon_reloads",
	CtrDaemonBadRequests:    "daemon_bad_requests",
}

// String returns the counter's stable snapshot key.
func (c Counter) String() string {
	if c < NumCounters {
		return counterNames[c]
	}
	return "unknown"
}

// CounterSet is a flat array of atomic counters indexed by Counter. The
// zero value is ready to use; writers never block and readers assemble
// snapshots without any lock.
type CounterSet struct {
	c [NumCounters]atomic.Uint64
}

// Add increments counter i by v. Adding zero is a branch, not a locked
// instruction: block retirement folds a dozen outcome counters of which a
// conflict-free block moves half.
func (s *CounterSet) Add(i Counter, v uint64) {
	if v != 0 {
		s.c[i].Add(v)
	}
}

// Inc increments counter i by one.
func (s *CounterSet) Inc(i Counter) { s.c[i].Add(1) }

// Load returns the current value of counter i.
func (s *CounterSet) Load(i Counter) uint64 { return s.c[i].Load() }

// Store overwrites counter i with v.
func (s *CounterSet) Store(i Counter, v uint64) { s.c[i].Store(v) }

// Max raises counter i to at least v (monotone atomic maximum), the merge
// rule of the *_max_depth counters.
func (s *CounterSet) Max(i Counter, v uint64) {
	a := &s.c[i]
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Reset zeroes the given counters (all of them when none are named).
func (s *CounterSet) Reset(idx ...Counter) {
	if len(idx) == 0 {
		for i := range s.c {
			s.c[i].Store(0)
		}
		return
	}
	for _, i := range idx {
		s.c[i].Store(0)
	}
}

// Snapshot returns the nonzero counters keyed by their stable names.
func (s *CounterSet) Snapshot() map[string]uint64 {
	out := make(map[string]uint64)
	for i := Counter(0); i < NumCounters; i++ {
		if v := s.c[i].Load(); v != 0 {
			out[i.String()] = v
		}
	}
	return out
}

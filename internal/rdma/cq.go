package rdma

import (
	"sync"
	"sync/atomic"
)

// Completion is one completion-queue entry.
type Completion struct {
	Op    OpType
	WRID  uint64 // caller-assigned work-request ID
	Bytes int    // payload length
	Imm   uint32 // immediate data carried by sends
	Data  []byte // receive completions: the filled buffer (len = Bytes)
	Err   error  // non-nil for error completions (e.g. ErrBufferSize);
	// Data then carries the (unfilled) posted buffer for recycling and
	// Bytes the length the operation would have needed.

	// Aux carries consumer-side context on synthesized completions — the
	// fabric never sets it. The MPI layer uses it to tie the sub-message
	// completions expanded out of one coalesced frame back to their shared
	// bounce buffer for exactly-once recycling.
	Aux any
}

// CQ is a completion queue. Unlike hardware rings it retains a sliding
// window of entries indexed by absolute completion number. A consumer keeps
// a cursor: WaitBatch drains every ready entry from the cursor on under one
// lock acquisition, Trim releases what the consumer has advanced past, and
// Ready tells without locking whether anything new has arrived.
type CQ struct {
	mu      sync.Mutex
	cond    *sync.Cond
	entries []Completion
	base    uint64 // absolute index of entries[0]
	next    uint64 // absolute index of the next completion to be pushed
	closed  bool

	// ready mirrors next outside the lock so pollers can check for new
	// completions — the common empty/ready test — without contending with
	// producers.
	ready atomic.Uint64
}

// NewCQ returns an empty completion queue.
func NewCQ() *CQ {
	q := &CQ{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// Push appends a completion entry; exported so software paths (loopback
// devices, tests, host-generated events) can produce completions.
func (q *CQ) Push(c Completion) {
	q.mu.Lock()
	q.entries = append(q.entries, c)
	q.next++
	q.ready.Store(q.next)
	q.mu.Unlock()
	q.cond.Broadcast()
}

// Close wakes all waiters; subsequent waits return ok=false once drained.
func (q *CQ) Close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// WaitBatch blocks until at least one completion at absolute index from or
// beyond exists, then drains as many consecutive completions as are ready
// (up to len(dst)) under the same lock acquisition. It reports ok=false
// when the queue was closed before entry from was produced, or when from
// was already trimmed.
func (q *CQ) WaitBatch(from uint64, dst []Completion) (int, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.next <= from {
		if q.closed {
			return 0, false
		}
		q.cond.Wait()
	}
	if from < q.base {
		return 0, false
	}
	return copy(dst, q.entries[from-q.base:]), true
}

// Ready returns the absolute index of the next completion to be produced,
// without taking the queue lock. Ready() > k means entry k exists (unless
// trimmed); Ready() <= k means it does not exist yet.
func (q *CQ) Ready() uint64 { return q.ready.Load() }

// Trim discards entries below absolute index k, modelling ring reuse after
// the consumer has advanced. Remaining entries are compacted to the front
// of the backing array so a steady-state producer/consumer pair recycles
// one allocation indefinitely.
func (q *CQ) Trim(k uint64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if k <= q.base {
		return
	}
	if k > q.next {
		k = q.next
	}
	n := copy(q.entries, q.entries[k-q.base:])
	q.entries = q.entries[:n]
	q.base = k
}

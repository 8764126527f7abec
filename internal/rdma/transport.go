package rdma

import "repro/internal/obs"

// This file is the dataplane contract the MPI layer runs on, and the
// in-process fabric's implementation of it. mpi.World knows nothing else:
// mpi.NewWorld takes one Transport per rank from Fabric.Ranks,
// mpi.NewNetWorld is handed one built by internal/rdma/netfabric, and both
// attach and start them through the same routine. Endpoint is the per-peer
// send side; Transport is the per-rank view of the whole fabric. One
// conformance suite (netfabric/conformance_test.go) holds every
// implementation, this one included, to the contract below.

// Endpoint is the send side of one connected peer link:
//
//   - Send carries data-plane traffic. It may block on backpressure on a
//     reliable link; on a lossy or faulty one it must not block and instead
//     surfaces ErrNoReceive for the reliability sublayer to retry through.
//   - SendControl carries control-plane traffic (reliability sacks). It
//     never blocks: when the link is saturated the message is dropped and
//     ErrNoReceive returned — control traffic must be idempotent.
//   - Close releases the endpoint; subsequent sends fail with ErrClosed.
type Endpoint interface {
	Send(data []byte, imm uint32, wrID uint64) error
	SendControl(data []byte, imm uint32, wrID uint64) error
	Close()
}

// QP implements Endpoint.
var _ Endpoint = (*QP)(nil)

// Transport is one rank's connection to a message fabric: the factory for
// per-peer endpoints plus the receive datapath and the registered-memory
// operations of the rendezvous protocol. Each inbound message consumes a
// posted buffer from the RecvQueue and produces an OpRecv Completion on the
// CQ (oversized messages produce an error completion carrying
// ErrBufferSize with the unfilled buffer attached).
type Transport interface {
	// Rank and Size identify this endpoint within the job.
	Rank() int
	Size() int

	// Start attaches the receive datapath: every inbound message takes a
	// buffer from rq and completes on cq. Peer links are established here
	// (the address book is exchanged at construction time), so a networked
	// Start only returns once traffic can flow in both directions; in
	// process it returns at once and traffic flows toward a peer as soon as
	// that peer has started.
	Start(rq *RecvQueue, cq *CQ) error

	// Endpoint returns the send side toward peer (self included: transports
	// must loop self-sends back locally). Call it once this rank and the
	// peer have started; repeated calls return the same link.
	Endpoint(peer int) Endpoint

	// Reliable reports whether the transport guarantees in-order,
	// exactly-once delivery. When false the MPI layer arms its reliability
	// sublayer (sequencing, dedup, retransmit) as the delivery filter.
	Reliable() bool

	// RegisterMemory exposes buf for remote Read under the returned region's
	// RKey; Deregister revokes it. Keys are scoped to this transport.
	RegisterMemory(buf []byte) *MemoryRegion
	Deregister(mr *MemoryRegion)

	// Read copies length bytes from the region (rkey, offset) registered by
	// rank owner into dst — the one-sided RDMA READ of the rendezvous
	// protocol. len(dst) must equal length. A networked transport needs the
	// owner rank to route the request; the in-process fabric's keys are
	// fabric-wide and it ignores owner.
	Read(owner int, dst []byte, rkey uint64, offset, length int) error

	// Obs returns the transport's observability sink (the "fabric" domain
	// of the world's export: obs.CtrNet* counters, fault tallies).
	Obs() *obs.Sink

	// Close tears down every link; sends from this rank then fail with
	// ErrClosed. Outstanding traffic must already have quiesced (the MPI
	// layer closes only after a final barrier). A second Close returns nil.
	Close() error
}

// Take removes one posted receive buffer (a bounce queue makes it if it
// has none yet), blocking until a buffer is free or cancel closes. It is
// the consuming counterpart of Post for external delivery engines
// (netfabric transports); the in-process QP reads the queue directly.
func (rq *RecvQueue) Take(cancel <-chan struct{}) (buf []byte, wrID uint64, ok bool) {
	if wr, ok := rq.poll(); ok {
		return wr.buf, wr.wrID, true
	}
	select {
	case wr := <-rq.ch:
		return wr.buf, wr.wrID, true
	case <-cancel:
		return nil, 0, false
	}
}

// Ranks returns the n Transports of one n-rank job on the fabric, one per
// rank. Call SetFaults and SetObs first. Rank i's Endpoint(j) is the send
// end of a QP pair whose passive end feeds the RecvQueue and CQ rank j
// started with, so sends land inline on the sending goroutine and a job
// owns no goroutine; the link i→j draws faults from stream i*n+j.
func (f *Fabric) Ranks(n int) []Transport {
	job := make([]*fabricRank, n)
	out := make([]Transport, n)
	for i := range job {
		job[i] = &fabricRank{f: f, rank: i, job: job, eps: make([]*QP, n)}
		out[i] = job[i]
	}
	return out
}

// fabricRank is one rank's Transport over the in-process fabric. The
// fabric's lock guards rq, cq, eps and closed: all are touched only while
// a job is set up and torn down.
type fabricRank struct {
	f      *Fabric
	rank   int
	job    []*fabricRank // every rank of the job, this one included
	rq     *RecvQueue
	cq     *CQ
	eps    []*QP // send ends by destination, connected on first use
	closed bool
}

func (r *fabricRank) Rank() int      { return r.rank }
func (r *fabricRank) Size() int      { return len(r.job) }
func (r *fabricRank) Obs() *obs.Sink { return r.f.Obs() }

// Reliable is false exactly when a fault plan is active: the fabric then
// drops, duplicates and reorders like a lossy wire.
func (r *fabricRank) Reliable() bool { return !r.f.faults.Active() }

func (r *fabricRank) Start(rq *RecvQueue, cq *CQ) error {
	r.f.mu.Lock()
	r.rq, r.cq = rq, cq
	r.f.mu.Unlock()
	return nil
}

func (r *fabricRank) Endpoint(peer int) Endpoint {
	if peer < 0 || peer >= len(r.job) {
		return nil
	}
	r.f.mu.Lock()
	defer r.f.mu.Unlock()
	if r.eps[peer] == nil {
		dst := r.job[peer]
		ep, _ := connect(QPConfig{}, QPConfig{RecvCQ: dst.cq, RQ: dst.rq})
		ep.inj = r.f.faults.Stream(r.rank*len(r.job)+peer, r.f.sinkLocked())
		if r.closed {
			ep.Close()
		}
		r.eps[peer] = ep
	}
	return r.eps[peer]
}

func (r *fabricRank) RegisterMemory(buf []byte) *MemoryRegion { return r.f.RegisterMemory(buf) }
func (r *fabricRank) Deregister(mr *MemoryRegion)             { r.f.Deregister(mr) }

func (r *fabricRank) Read(_ int, dst []byte, rkey uint64, offset, length int) error {
	if length != len(dst) {
		return ErrBounds
	}
	return r.f.Read(dst, rkey, offset, length, nil, 0)
}

func (r *fabricRank) Close() error {
	r.f.mu.Lock()
	defer r.f.mu.Unlock()
	r.closed = true
	for _, ep := range r.eps {
		if ep != nil {
			ep.Close()
		}
	}
	return nil
}

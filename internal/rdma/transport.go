package rdma

import "repro/internal/obs"

// This file extracts the fabric's service contract into interfaces so a
// rank can run over something other than the in-process fabric —
// concretely, the real-socket transports of internal/rdma/netfabric. The
// split follows what the MPI layer actually consumes:
//
//   - Endpoint: the per-peer send side (QP.Send / QP.SendControl).
//   - Transport: the per-rank view of the whole fabric — endpoint lookup,
//     inbound delivery into a RecvQueue/CQ pair, and the one-sided memory
//     operations the rendezvous protocol needs (register, deregister, read).
//
// *QP satisfies Endpoint as-is, so the in-process fabric keeps its exact
// wire and completion behaviour; mpi.NewWorld still connects QPs directly
// and stays bit-identical. mpi.NewNetWorld accepts any Transport instead.

// Endpoint is the send side of one connected peer link. It mirrors the
// QP's contract exactly:
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
// operations of the rendezvous protocol. A Transport delivers inbound
// messages exactly like QP.Send lands them — each message consumes
// a posted buffer from the RecvQueue and produces an OpRecv Completion on
// the CQ (oversized messages produce an error completion carrying
// ErrBufferSize with the unfilled buffer attached).
type Transport interface {
	// Rank and Size identify this endpoint within the job.
	Rank() int
	Size() int

	// Start attaches the receive datapath: every inbound message takes a
	// buffer from rq and completes on cq. Peer links are established here
	// (the address book is exchanged at construction time), so Start only
	// returns once traffic can flow in both directions.
	Start(rq *RecvQueue, cq *CQ) error

	// Endpoint returns the send side toward peer (self included: transports
	// must loop self-sends back locally).
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
	// protocol. Unlike the in-process fabric, a networked transport needs
	// the owner rank to route the request.
	Read(owner int, dst []byte, rkey uint64, offset, length int) error

	// Obs returns the transport's observability sink (the "fabric" domain
	// of the world's export: obs.CtrNet* counters, fault tallies).
	Obs() *obs.Sink

	// Close tears down every link. Outstanding traffic must already have
	// quiesced (the MPI layer closes only after a final barrier).
	Close() error
}

// Take removes one posted receive buffer, blocking until a buffer is
// posted or cancel closes. It is the consuming counterpart of Post for
// external delivery engines (netfabric transports); the in-process QP
// reads the queue directly.
func (rq *RecvQueue) Take(cancel <-chan struct{}) (buf []byte, wrID uint64, ok bool) {
	select {
	case wr := <-rq.ch:
		return wr.buf, wr.wrID, true
	case <-cancel:
		return nil, 0, false
	}
}

// Package rdma simulates the RDMA fabric the paper's prototype runs on:
// queue pairs carrying two-sided SEND/RECV traffic with completion queues,
// registered memory regions addressable by rkey, and the one-sided READ
// used by the rendezvous protocol (§IV-B).
//
// The simulation is in-process and delivery is inline: QP.Send takes the
// next buffer from the peer's posted receive queue, copies the payload
// straight into it and pushes the receive completion, all on the sending
// goroutine — the NIC → CQ → handler path of §IV-A with no software hop in
// between (no wire queue, no staging copy, no delivery goroutine). That
// gives the two properties the matching pipeline actually depends on —
// per-QP ordered delivery and completion notifications — while remaining
// deterministic and testable. A sender's slack is exactly the number of
// buffers its receiver has posted: with none, a lossless Send blocks
// (receiver-not-ready back-pressure) and a faulty or control send fails
// with ErrNoReceive.
//
// A Fabric also hands out one Transport per rank (transport.go), which is
// how the MPI layer runs on it: the same contract the socket and
// shared-memory transports of internal/rdma/netfabric implement.
package rdma

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/obs"
)

// Errors returned by fabric operations.
var (
	ErrNoReceive  = errors.New("rdma: receiver has no posted receive (RNR)")
	ErrBadKey     = errors.New("rdma: invalid remote key")
	ErrBounds     = errors.New("rdma: remote access out of bounds")
	ErrClosed     = errors.New("rdma: queue pair closed")
	ErrBufferSize = errors.New("rdma: receive buffer too small")
	// ErrPeerLost is a READ whose owner's process no longer exists.
	ErrPeerLost = errors.New("rdma: peer process is gone")
)

// OpType labels a completion entry.
type OpType uint8

const (
	// OpRecv completes a two-sided receive on the receiver.
	OpRecv OpType = iota
	// OpRead completes a one-sided read on the initiator.
	OpRead
)

// String implements fmt.Stringer.
func (o OpType) String() string {
	switch o {
	case OpRecv:
		return "recv"
	case OpRead:
		return "read"
	}
	return fmt.Sprintf("OpType(%d)", uint8(o))
}

// Fabric is the in-process RDMA network: a registry of memory regions and
// the factory for connected queue pairs.
type Fabric struct {
	mu      sync.Mutex
	mrs     map[uint64]*MemoryRegion
	nextKey uint64

	// Fault injection (fault.go): the installed plan, and the QP-creation
	// counter that numbers the links of bare ConnectPair pairs. Fault
	// tallies live in the fabric's obs sink.
	faults FaultPlan
	nextQP int

	// obs is the fabric's observability domain (fault-injection counters
	// and events), guarded by mu: the one SetObs installed, or else a
	// counters-only sink built when first needed (sinkLocked).
	obs *obs.Sink
}

// NewFabric returns an empty fabric with free operations.
func NewFabric() *Fabric {
	return &Fabric{
		mrs:     make(map[uint64]*MemoryRegion),
		nextKey: 1,
	}
}

// SetObs replaces the fabric's observability sink (e.g. with a tracing
// one). Call before ConnectPair: fault streams capture the sink at creation.
func (f *Fabric) SetObs(s *obs.Sink) {
	if s != nil {
		f.mu.Lock()
		f.obs = s
		f.mu.Unlock()
	}
}

// Obs returns the fabric's observability sink.
func (f *Fabric) Obs() *obs.Sink {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.sinkLocked()
}

// sinkLocked returns the sink, building the default one if SetObs
// installed none. The caller holds f.mu.
func (f *Fabric) sinkLocked() *obs.Sink {
	if f.obs == nil {
		f.obs = obs.New(obs.Options{})
	}
	return f.obs
}

// MemoryRegion is a registered buffer remotely addressable by RKey.
type MemoryRegion struct {
	Buf  []byte
	RKey uint64
}

// RegisterMemory registers buf and returns its region handle.
func (f *Fabric) RegisterMemory(buf []byte) *MemoryRegion {
	f.mu.Lock()
	defer f.mu.Unlock()
	mr := &MemoryRegion{Buf: buf, RKey: f.nextKey}
	f.nextKey++
	f.mrs[mr.RKey] = mr
	return mr
}

// Deregister removes a region; subsequent remote access fails with ErrBadKey.
func (f *Fabric) Deregister(mr *MemoryRegion) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.mrs, mr.RKey)
}

func (f *Fabric) region(key uint64) (*MemoryRegion, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	mr, ok := f.mrs[key]
	return mr, ok
}

// Read copies length bytes from the registered region (rkey, offset) into
// dst — the one-sided RDMA READ used by rendezvous. It completes inline and
// posts an OpRead completion to cq when cq is non-nil.
func (f *Fabric) Read(dst []byte, rkey uint64, offset, length int, cq *CQ, wrID uint64) error {
	mr, ok := f.region(rkey)
	if !ok {
		return ErrBadKey
	}
	if offset < 0 || length < 0 || offset+length > len(mr.Buf) {
		return ErrBounds
	}
	if length > len(dst) {
		return ErrBufferSize
	}
	copy(dst, mr.Buf[offset:offset+length])
	if cq != nil {
		cq.Push(Completion{Op: OpRead, WRID: wrID, Bytes: length})
	}
	return nil
}

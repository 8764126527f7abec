// Package rdma simulates the RDMA fabric the paper's prototype runs on:
// queue pairs carrying two-sided SEND/RECV traffic with completion queues,
// registered memory regions addressable by rkey, and one-sided READ/WRITE
// operations used by the rendezvous protocol (§IV-B).
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
// with ErrNoReceive. Per-operation latency is pluggable through a Cost
// model so protocol crossovers can be explored.
package rdma

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
)

// Errors returned by fabric operations.
var (
	ErrNoReceive  = errors.New("rdma: receiver has no posted receive (RNR)")
	ErrBadKey     = errors.New("rdma: invalid remote key")
	ErrBounds     = errors.New("rdma: remote access out of bounds")
	ErrClosed     = errors.New("rdma: queue pair closed")
	ErrBufferSize = errors.New("rdma: receive buffer too small")
)

// OpType labels a completion entry.
type OpType uint8

const (
	// OpSend completes a two-sided send on the sender.
	OpSend OpType = iota
	// OpRecv completes a two-sided receive on the receiver.
	OpRecv
	// OpRead completes a one-sided read on the initiator.
	OpRead
	// OpWrite completes a one-sided write on the initiator.
	OpWrite
)

// String implements fmt.Stringer.
func (o OpType) String() string {
	switch o {
	case OpSend:
		return "send"
	case OpRecv:
		return "recv"
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	}
	return fmt.Sprintf("OpType(%d)", uint8(o))
}

// Cost models per-operation overheads in wall-clock time. Zero values mean
// free operations; the message-rate benchmark uses small non-zero values to
// model PCIe and wire costs.
type Cost struct {
	// SendWire is charged once per two-sided message.
	SendWire time.Duration
	// ReadRTT is charged once per one-sided read (rendezvous data fetch).
	ReadRTT time.Duration
	// PerKiB is charged per KiB of payload on any data movement.
	PerKiB time.Duration
}

// charge busy-waits for the modeled duration. Sleeping is too coarse for
// sub-microsecond costs, so a monotonic spin is used.
func charge(d time.Duration) {
	if d <= 0 {
		return
	}
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
	}
}

func (c Cost) data(n int) time.Duration {
	return time.Duration(n) * c.PerKiB / 1024
}

// Fabric is the in-process RDMA network: a registry of memory regions and
// the factory for connected queue pairs.
type Fabric struct {
	mu      sync.Mutex
	mrs     map[uint64]*MemoryRegion
	nextKey uint64
	cost    Cost

	// Fault injection (fault.go): the installed plan, a fast activity
	// flag, and the QP-creation counter that keys per-QP rate overrides
	// and decision streams. Fault tallies live in the fabric's obs sink.
	faults   FaultPlan
	faultsOn bool
	nextQP   int

	// obs is the fabric's observability domain (fault-injection counters
	// and events). Always non-nil; SetObs swaps in a shared/tracing sink.
	obs *obs.Sink
}

// NewFabric returns an empty fabric with free operations.
func NewFabric() *Fabric {
	return &Fabric{
		mrs:     make(map[uint64]*MemoryRegion),
		nextKey: 1,
		obs:     obs.New(obs.Options{}),
	}
}

// SetObs replaces the fabric's observability sink (e.g. with a tracing
// one). Call before ConnectPair: injectors capture the sink at creation.
func (f *Fabric) SetObs(s *obs.Sink) {
	if s != nil {
		f.obs = s
	}
}

// Obs returns the fabric's observability sink.
func (f *Fabric) Obs() *obs.Sink { return f.obs }

// SetCost installs the latency model. Call before traffic starts.
func (f *Fabric) SetCost(c Cost) { f.cost = c }

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
	charge(f.cost.ReadRTT + f.cost.data(length))
	copy(dst, mr.Buf[offset:offset+length])
	if cq != nil {
		cq.Push(Completion{Op: OpRead, WRID: wrID, Bytes: length})
	}
	return nil
}

// Write copies src into the registered region (rkey, offset) — one-sided
// RDMA WRITE. It posts an OpWrite completion to cq when cq is non-nil.
func (f *Fabric) Write(src []byte, rkey uint64, offset int, cq *CQ, wrID uint64) error {
	mr, ok := f.region(rkey)
	if !ok {
		return ErrBadKey
	}
	if offset < 0 || offset+len(src) > len(mr.Buf) {
		return ErrBounds
	}
	charge(f.cost.ReadRTT + f.cost.data(len(src)))
	copy(mr.Buf[offset:], src)
	if cq != nil {
		cq.Push(Completion{Op: OpWrite, WRID: wrID, Bytes: len(src)})
	}
	return nil
}

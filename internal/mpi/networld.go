package mpi

import (
	"fmt"

	"repro/internal/match"
	"repro/internal/rdma"
)

// NewNetWorld creates the local member of an out-of-process world: this
// process hosts exactly one rank (t.Rank() of t.Size()) and all wire
// traffic — eager messages, coalesced kindEagerBatch frames, RTS/ACK
// rendezvous control, reliability sacks — crosses the given transport
// unchanged, byte-for-byte identical to what the in-process fabric carries.
//
// Over an unreliable transport (t.Reliable() == false, i.e. UDP) the
// reliability sublayer is always armed as the delivery filter: per-peer
// sequencing, duplicate suppression, reorder repair, and retransmission
// stop being fault-injection test gear and become load-bearing. Options.
// Faults additionally arms it on a reliable transport, but deterministic
// fault injection itself lives in the transport (netfabric.Config.Faults),
// not in the world.
//
// The world owns t from the call on: World.Close closes it, and so does
// every failing return here — the caller never has a transport to clean up.
//
// The world must quiesce before Close — run a final Barrier so no peer
// still expects acknowledgements, exactly as with in-process worlds.
func NewNetWorld(t rdma.Transport, opts Options) (*World, error) {
	if t == nil {
		return nil, fmt.Errorf("mpi: nil transport")
	}
	n, rank := t.Size(), t.Rank()
	if n < 1 || rank < 0 || rank >= n {
		_ = t.Close()
		return nil, fmt.Errorf("mpi: transport rank %d of %d out of range", rank, n)
	}
	opts.fill()
	w := &World{opts: opts, n: n, trans: t, closed: make(chan struct{})}
	w.recvs.New = func() any { return new(match.Recv) }

	p, err := newProc(w, rank, n)
	if err != nil {
		_ = t.Close()
		return nil, err
	}
	for j := 0; j < n; j++ {
		p.sendEP[j] = t.Endpoint(j)
	}
	w.procs = []*Proc{p}
	// Attach the receive datapath: inbound messages consume the rank's
	// bounce buffers and complete on its raw CQ, exactly like sends
	// landing inline on an in-process world's QPs.
	if err := t.Start(p.srq, p.rawCQ); err != nil {
		p.engine.close() // built, never started: releases the DPA workers
		_ = t.Close()
		return nil, err
	}
	if err := p.start(); err != nil {
		w.Close()
		return nil, err
	}
	return w, nil
}

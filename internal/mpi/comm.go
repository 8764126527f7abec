package mpi

import (
	"fmt"

	"repro/internal/match"
)

// Comm is a communicator bound to one rank — the object all point-to-point
// operations go through, mirroring MPI's (communicator, rank) pairing.
type Comm struct {
	p  *Proc
	id match.CommID
}

// World returns the default communicator (MPI_COMM_WORLD) for this rank.
func (p *Proc) World() Comm { return Comm{p: p, id: match.WorldComm} }

// Comm returns a communicator with the given ID. IDs must be non-negative;
// negative IDs are reserved for library-internal traffic.
func (p *Proc) Comm(id int32) Comm {
	if id < 0 {
		panic(fmt.Sprintf("mpi: communicator id %d is reserved", id))
	}
	return Comm{p: p, id: match.CommID(id)}
}

// Rank returns the calling process's rank.
func (c Comm) Rank() int { return c.p.rank }

// Size returns the communicator size (the world size in this library).
func (c Comm) Size() int { return c.p.n }

// Isend starts a non-blocking send of data to rank dst with the given tag.
// Payloads up to the world's EagerLimit go eagerly (completing immediately,
// since the wire copies the payload); larger payloads use the rendezvous
// protocol and complete when the receiver's RDMA read is acknowledged —
// data must stay untouched until then.
func (c Comm) Isend(dst, tag int, data []byte) (*Request, error) {
	if err := c.p.checkPeer(dst); err != nil {
		return nil, err
	}
	if tag < 0 {
		return nil, fmt.Errorf("mpi: negative tag %d", tag)
	}
	return c.p.isend(dst, tag, c.id, data)
}

// Send is the blocking form of Isend.
func (c Comm) Send(dst, tag int, data []byte) error {
	req, err := c.Isend(dst, tag, data)
	if err != nil {
		return err
	}
	_, err = req.Wait()
	return err
}

// Irecv starts a non-blocking receive into buf from rank src (or AnySource)
// with the given tag (or AnyTag).
func (c Comm) Irecv(src, tag int, buf []byte) (*Request, error) {
	if src != AnySource {
		if err := c.p.checkPeer(src); err != nil {
			return nil, err
		}
	}
	if tag != AnyTag && tag < 0 {
		return nil, fmt.Errorf("mpi: negative tag %d", tag)
	}
	return c.p.irecv(src, tag, c.id, buf)
}

// Recv is the blocking form of Irecv; it returns the completion status.
func (c Comm) Recv(src, tag int, buf []byte) (Status, error) {
	req, err := c.Irecv(src, tag, buf)
	if err != nil {
		return Status{}, err
	}
	return req.Wait()
}

func (p *Proc) checkPeer(rank int) error {
	if rank < 0 || rank >= p.n {
		return fmt.Errorf("mpi: rank %d outside world of size %d", rank, p.n)
	}
	return nil
}

// isend implements the send side of §IV-B.
func (p *Proc) isend(dst, tag int, comm match.CommID, data []byte) (*Request, error) {
	if p.w.Closed() {
		return nil, ErrClosed
	}
	hashes := match.InlineHashes{
		SrcTag: match.HashSrcTag(match.Rank(p.rank), match.Tag(tag), comm),
		Tag:    match.HashTag(match.Tag(tag), comm),
		Src:    match.HashSrc(match.Rank(p.rank), comm),
	}

	if len(data) <= p.w.opts.EagerLimit {
		// Coalescing path: application-communicator eager sends are staged
		// into the destination's frame; the copy happens at add() time, so
		// the request is born complete, like any buffered eager send.
		if p.coal != nil && comm >= 0 {
			if err := p.coal.add(dst, int32(tag), comm, hashes, data); err != nil {
				return nil, err
			}
			return newCompleted(p, Status{Source: dst, Tag: tag, Count: len(data)}), nil
		}
		if p.coal != nil {
			// Library-internal traffic (negative communicators: barriers,
			// collectives) bypasses the coalescer, which makes every such
			// send a synchronization point toward its destination: flush
			// first so the bypass cannot overtake buffered eager traffic.
			if err := p.coal.flushDst(dst, flushSync); err != nil {
				return nil, err
			}
		}
		// Stage header+payload in a slab buffer: QP.Send copies before
		// returning, so the buffer goes straight back to the slab.
		buf := p.w.slab.get(headerSize + len(data))
		h := header{kind: kindEager, src: int32(p.rank), tag: int32(tag),
			comm: int32(comm), size: uint32(len(data)), hashes: hashes}
		h.encode(buf)
		copy(buf[headerSize:], data)
		err := p.sendWire(dst, buf)
		p.w.slab.put(buf)
		if err != nil {
			return nil, err
		}
		// Eager sends complete locally once the payload is on the wire.
		return newCompleted(p, Status{Source: dst, Tag: tag, Count: len(data)}), nil
	}

	// Rendezvous: register the user buffer, send an RTS carrying its key,
	// and complete on the receiver's acknowledgement. The RTS is matchable
	// traffic, so buffered eager messages toward dst must go first.
	if p.coal != nil {
		if err := p.coal.flushDst(dst, flushSync); err != nil {
			return nil, err
		}
	}
	req := newRequest(p)
	mr := p.trans.RegisterMemory(data)
	p.pendMu.Lock()
	p.pending[mr.RKey] = &pendingSend{req: req, mr: mr, dst: dst, tag: tag}
	p.pendMu.Unlock()

	var buf [headerSize]byte
	h := header{kind: kindRTS, src: int32(p.rank), tag: int32(tag),
		comm: int32(comm), size: uint32(len(data)), rkey: mr.RKey, hashes: hashes}
	h.encode(buf[:])
	if err := p.sendWire(dst, buf[:]); err != nil {
		p.pendMu.Lock()
		delete(p.pending, mr.RKey)
		p.pendMu.Unlock()
		p.trans.Deregister(mr)
		return nil, err
	}
	return req, nil
}

// irecv posts a receive to the engine. The Recv record comes from the
// world's pool; whichever path delivers the match recycles it.
func (p *Proc) irecv(src, tag int, comm match.CommID, buf []byte) (*Request, error) {
	if p.w.Closed() {
		return nil, ErrClosed
	}
	req := newRequest(p)
	r := p.w.recvs.Get().(*match.Recv)
	*r = match.Recv{
		Source: match.Rank(src),
		Tag:    match.Tag(tag),
		Comm:   comm,
		Buffer: buf,
		User:   req,
	}
	if err := p.engine.post(r); err != nil {
		return nil, err
	}
	return req, nil
}

// Barrier blocks until every rank has entered it. All ranks must call
// Barrier the same number of times. The implementation is a centralized
// gather/release through the library-internal communicator, so it exercises
// the full matching path.
func (c Comm) Barrier() error {
	return c.p.barrier()
}

// barrier implements a central-coordinator barrier on internalComm.
func (p *Proc) barrier() error {
	tag := int(p.barrierRound.Add(1)) // per-proc monotonically increasing
	ic := Comm{p: p, id: internalComm}
	var token [1]byte
	if p.rank == 0 {
		for r := 1; r < p.n; r++ {
			if _, err := ic.recvInternal(r, tag); err != nil {
				return err
			}
		}
		for r := 1; r < p.n; r++ {
			if err := ic.sendInternal(r, tag, token[:]); err != nil {
				return err
			}
		}
		return nil
	}
	if err := ic.sendInternal(0, tag, token[:]); err != nil {
		return err
	}
	_, err := ic.recvInternal(0, tag)
	return err
}

// sendInternal bypasses the public validation (internalComm is negative).
func (c Comm) sendInternal(dst, tag int, data []byte) error {
	req, err := c.p.isend(dst, tag, c.id, data)
	if err != nil {
		return err
	}
	_, err = req.Wait()
	return err
}

func (c Comm) recvInternal(src, tag int) (Status, error) {
	var buf [1]byte
	req, err := c.p.irecv(src, tag, c.id, buf[:])
	if err != nil {
		return Status{}, err
	}
	return req.Wait()
}

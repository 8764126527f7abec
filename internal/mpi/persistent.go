package mpi

import "fmt"

// PersistentRequest is a reusable receive handle in the style of
// MPI_Recv_init: the operation's arguments are bound once and each Start
// issues a fresh instance of the operation. Persistent requests matter to
// matching performance because they encourage long runs of identical
// (source, tag) receives — exactly the compatible sequences the fast path of
// §III-D3a exploits.
type PersistentRequest struct {
	c    Comm
	peer int
	tag  int
	buf  []byte

	active *Request
}

// RecvInit binds a persistent receive (MPI_Recv_init).
func (c Comm) RecvInit(src, tag int, buf []byte) (*PersistentRequest, error) {
	if src != AnySource {
		if err := c.p.checkPeer(src); err != nil {
			return nil, err
		}
	}
	if tag != AnyTag && tag < 0 {
		return nil, fmt.Errorf("mpi: negative tag %d", tag)
	}
	return &PersistentRequest{c: c, peer: src, tag: tag, buf: buf}, nil
}

// Start issues one instance of the bound receive (MPI_Start). The previous
// instance must have completed.
func (p *PersistentRequest) Start() (*Request, error) {
	if p.active != nil {
		if _, done, _ := p.active.Test(); !done {
			return nil, fmt.Errorf("mpi: persistent request started while active")
		}
	}
	req, err := p.c.Irecv(p.peer, p.tag, p.buf)
	if err != nil {
		return nil, err
	}
	p.active = req
	return req, nil
}

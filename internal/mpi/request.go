package mpi

import (
	"runtime"
	"sync/atomic"
	"unsafe"
)

// Status describes a completed point-to-point operation, mirroring
// MPI_Status: the matched source rank, tag, and received byte count.
type Status struct {
	Source int
	Tag    int
	Count  int
}

// Request is a non-blocking operation handle, as returned by Isend and
// Irecv. Wait blocks until completion.
//
// Its whole state is one atomic wake word, with no lock:
//
//	nil            pending, nobody waiting
//	a channel      pending, a waiter installed this channel
//	reqClaimed     a completer won the claim and is writing status/err
//	reqCompleted   status and err are published and final
//
// complete claims the request with a CAS, writes status and err, and then
// stores reqCompleted, so a reader that sees reqCompleted sees the status;
// a second complete finds the word claimed and writes nothing. The
// completion channel is created only when a waiter arrives before the
// operation finishes: eager sends are born complete, and already-matched
// receives complete before the caller can block, so the hot path is one
// 64-byte allocation per request and no channel.
type Request struct {
	p *Proc // issuing rank, for synchronization-point flushes
	// wake is read and written only through sync/atomic, except when a
	// born-complete request is built: it is a raw pointer rather than an
	// atomic.Pointer so that initialization is a plain store.
	wake   unsafe.Pointer
	status Status
	err    error
}

// The wake word's two sentinels. reqCompleted is a closed channel, which is
// what wakeChan hands a waiter on a finished request; reqClaimed is a
// channel nobody is ever given.
var (
	reqClaimed   = chanWord(make(chan struct{}))
	reqCompleted = func() unsafe.Pointer {
		ch := make(chan struct{})
		close(ch)
		return chanWord(ch)
	}()
)

// chanWord and wordChan convert between a channel and the wake word. A
// channel value is one pointer to its runtime header, so the word holds it
// directly and an early waiter allocates the channel and nothing else.
func chanWord(ch chan struct{}) unsafe.Pointer { return *(*unsafe.Pointer)(unsafe.Pointer(&ch)) }
func wordChan(w unsafe.Pointer) chan struct{}  { return *(*chan struct{})(unsafe.Pointer(&w)) }

func newRequest(p *Proc) *Request {
	return &Request{p: p}
}

// newCompleted returns a request that is complete from birth: an eager
// send whose payload is already on the wire or in the coalescer.
func newCompleted(p *Proc, st Status) *Request {
	return &Request{p: p, wake: reqCompleted, status: st}
}

func (r *Request) done() bool { return atomic.LoadPointer(&r.wake) == reqCompleted }

// complete finishes the request exactly once; later calls are no-ops.
func (r *Request) complete(st Status, err error) {
	for {
		w := atomic.LoadPointer(&r.wake)
		if w == reqClaimed || w == reqCompleted {
			return
		}
		if atomic.CompareAndSwapPointer(&r.wake, w, reqClaimed) {
			r.status, r.err = st, err
			atomic.StorePointer(&r.wake, reqCompleted)
			if w != nil {
				close(wordChan(w))
			}
			return
		}
	}
}

// wakeChan returns a channel that is closed once the request completes,
// installing one if no waiter has yet. A claimed request is two stores
// from complete, so it is waited out by yielding rather than with a
// channel.
func (r *Request) wakeChan() chan struct{} {
	for {
		switch w := atomic.LoadPointer(&r.wake); w {
		case reqClaimed:
			runtime.Gosched()
		case nil:
			ch := make(chan struct{})
			if atomic.CompareAndSwapPointer(&r.wake, nil, chanWord(ch)) {
				return ch
			}
		default:
			return wordChan(w)
		}
	}
}

// Wait blocks until the operation completes and returns its status. Wait
// is a synchronization point: any eager messages buffered by the rank's
// coalescer are flushed, so a peer blocked on this rank's sends always
// makes progress (and a pending receive here cannot deadlock on our own
// unflushed traffic the peer is waiting for).
//
// A Wait still pending when the world closes returns ErrClosed: a closed
// world will never complete the request, and a long-lived host canceling a
// job must be able to unblock its workers by closing their world.
func (r *Request) Wait() (Status, error) {
	if r.p != nil {
		r.p.flushCoalesced()
	}
	if r.done() {
		return r.status, r.err
	}
	ch := r.wakeChan()
	var closed <-chan struct{}
	if r.p != nil {
		closed = r.p.w.closed
	}
	select {
	case <-ch:
	case <-closed:
		// The world is tearing down. The completion may still have raced
		// ahead of the close; prefer it when it did.
		if !r.done() {
			return Status{}, ErrClosed
		}
	}
	return r.status, r.err
}

// Test reports whether the operation has completed, without blocking.
func (r *Request) Test() (Status, bool, error) {
	if r.done() {
		return r.status, true, r.err
	}
	return Status{}, false, nil
}

// Waitall waits on all requests and returns the first error encountered.
func Waitall(reqs ...*Request) error {
	var first error
	for _, r := range reqs {
		if r == nil {
			continue
		}
		if _, err := r.Wait(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

package mpi

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/match"
)

// ErrProbeUnsupported is returned on engines without an unexpected store
// (the raw RDMA mode has no matching and therefore nothing to probe).
var ErrProbeUnsupported = errors.New("mpi: probe not supported on this engine")

// Iprobe checks, without blocking or consuming, whether a message matching
// (src, tag) is available to receive — MPI_Iprobe. It inspects only the
// unexpected store: a message that would complete an already-posted receive
// belongs to that receive.
func (c Comm) Iprobe(src, tag int) (Status, bool, error) {
	if c.p.w.Closed() {
		return Status{}, false, ErrClosed
	}
	if src != AnySource {
		if err := c.p.checkPeer(src); err != nil {
			return Status{}, false, err
		}
	}
	if tag != AnyTag && tag < 0 {
		return Status{}, false, fmt.Errorf("mpi: negative tag %d", tag)
	}
	r := &match.Recv{Source: match.Rank(src), Tag: match.Tag(tag), Comm: c.id}

	var pr match.Probed
	var ok bool
	switch e := c.p.engine.(type) {
	case *hostEngine:
		pr, ok = e.list.peek(r)
	case *offloadEngine:
		if len(e.fallbackComms) != 0 && e.fallbackComms[c.id] {
			pr, ok = e.fallback.peek(r)
		} else {
			pr, ok = e.matcher.PeekUnexpected(r)
		}
	default:
		return Status{}, false, ErrProbeUnsupported
	}
	return Status{Source: int(pr.Source), Tag: int(pr.Tag), Count: pr.Count}, ok, nil
}

// Probe blocks until a message matching (src, tag) is available — the
// blocking MPI_Probe. The arrival path runs asynchronously, so Probe polls
// the unexpected store with a short backoff; a world closed meanwhile ends
// the wait with ErrClosed.
func (c Comm) Probe(src, tag int) (Status, error) {
	backoff := time.Microsecond
	for {
		st, ok, err := c.Iprobe(src, tag)
		if err != nil {
			return Status{}, err
		}
		if ok {
			return st, nil
		}
		select {
		case <-time.After(backoff):
		case <-c.p.w.Done():
			return Status{}, ErrClosed
		}
		if backoff < 128*time.Microsecond {
			backoff *= 2
		}
	}
}

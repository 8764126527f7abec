package netfabric

import "repro/internal/rdma"

// PendingReadCount reports the transport's in-flight outbound rendezvous
// reads, for the pending-read leak assertions. Transports not built by this
// package report 0.
func PendingReadCount(tr rdma.Transport) int {
	t, ok := tr.(*transport)
	if !ok {
		return 0
	}
	t.rdMu.Lock()
	defer t.rdMu.Unlock()
	return len(t.reads)
}

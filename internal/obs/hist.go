package obs

import (
	"math/bits"
	"sync/atomic"
)

// Hist identifies one fixed-bucket histogram in a Sink.
type Hist uint8

const (
	// HistBlockNs is the block lifecycle latency (launch → retire) in
	// nanoseconds.
	HistBlockNs Hist = iota
	// HistDrainBatch is the CQ drain batch size in completions.
	HistDrainBatch
	// HistRetxBackoffNs is the reliability retransmit backoff in
	// nanoseconds at the time of each re-send.
	HistRetxBackoffNs
	// HistPostDepth is the PostRecv search depth in entries examined.
	HistPostDepth
	// HistCoalesceWidth is the sub-message count of each flushed eager
	// batch frame (Count = frames sent, Sum = messages coalesced, so
	// Mean() is the achieved batch width).
	HistCoalesceWidth
	// HistRendezvousReadNs is the duration of each rendezvous READ in
	// nanoseconds, whatever the engine and the transport.
	HistRendezvousReadNs

	// NumHists bounds the enum; it must stay last.
	NumHists
)

// histNames maps Hist values to stable snapshot keys.
var histNames = [NumHists]string{
	HistBlockNs:          "block_ns",
	HistDrainBatch:       "drain_batch",
	HistRetxBackoffNs:    "retx_backoff_ns",
	HistPostDepth:        "post_depth",
	HistCoalesceWidth:    "coalesce_width",
	HistRendezvousReadNs: "rendezvous_read_ns",
}

// String returns the histogram's stable snapshot key.
func (h Hist) String() string {
	if h < NumHists {
		return histNames[h]
	}
	return "unknown"
}

// HistBuckets is the fixed bucket count: power-of-two buckets 2^0 … 2^30,
// with the last bucket absorbing everything larger (> ~1.07e9, i.e. more
// than a second when the unit is nanoseconds).
const HistBuckets = 32

// Histogram is a fixed-bucket log2 histogram. Bucket i counts values v
// with bits.Len64(v) == i (so bucket 0 is v==0, bucket 1 is v==1, bucket
// 2 is 2..3, and so on); values past the last bucket land in it. The zero
// value is ready to use; Observe is one atomic add.
type Histogram struct {
	buckets [HistBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	h.buckets[min(bits.Len64(v), HistBuckets-1)].Add(1)
	h.count.Add(1)
	if v != 0 {
		h.sum.Add(v)
	}
}

// HistDelta accumulates samples in plain words under a lock its owner
// already holds; Sink.MergeHist carries them to a Histogram in bulk.
type HistDelta struct {
	buckets [HistBuckets]uint64
	sum     uint64
}

// Observe records one value. The caller serializes.
func (d *HistDelta) Observe(v uint64) {
	d.buckets[min(bits.Len64(v), HistBuckets-1)]++
	d.sum += v
}

// merge adds d's samples to h and empties d. The caller serializes d.
func (h *Histogram) merge(d *HistDelta) {
	for i, n := range d.buckets {
		if n != 0 {
			h.buckets[i].Add(n)
			h.count.Add(n)
		}
	}
	h.sum.Add(d.sum)
	*d = HistDelta{}
}

// HistSnapshot is a point-in-time copy of a histogram.
type HistSnapshot struct {
	// Count and Sum give the sample count and total (Mean = Sum/Count).
	Count uint64 `json:"count"`
	Sum   uint64 `json:"sum"`
	// Buckets[i] counts samples with bits.Len64(v)==i; trailing zero
	// buckets are trimmed.
	Buckets []uint64 `json:"buckets"`
}

// Snapshot copies the histogram.
func (h *Histogram) Snapshot() HistSnapshot {
	out := HistSnapshot{Count: h.count.Load(), Sum: h.sum.Load()}
	last := -1
	var b [HistBuckets]uint64
	for i := range b {
		b[i] = h.buckets[i].Load()
		if b[i] != 0 {
			last = i
		}
	}
	if last >= 0 {
		out.Buckets = append([]uint64(nil), b[:last+1]...)
	}
	return out
}

// Mean returns the mean observed value (0 with no samples).
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

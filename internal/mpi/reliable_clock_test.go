package mpi

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/rdma"
)

// Fake-clock unit tests for the reliability sublayer's retransmit timer.
// newReliabilityCore exposes injectable seams (now, xmit, getBuf/putBuf),
// so the timeout and backoff behaviour is driven deterministically here —
// no fabric, no goroutines, no wall-clock sleeps.

// relHarness is a reliability core bound to a manual clock and an
// in-memory transmit log.
type relHarness struct {
	rel  *reliability
	t    time.Time
	log  []string // "dst/seq@offset" per transmission, in order
	freq map[uint32]int
	rets int // putBuf releases
}

func newRelHarness(peers int, timeout time.Duration) *relHarness {
	h := &relHarness{
		rel:  newReliabilityCore(peers, timeout),
		t:    time.Unix(1000, 0),
		freq: make(map[uint32]int),
	}
	base := h.t
	h.rel.now = func() time.Time { return h.t }
	h.rel.xmit = func(dst int, wire []byte) error {
		seq := uint32(wire[seqOffset]) | uint32(wire[seqOffset+1])<<8 |
			uint32(wire[seqOffset+2])<<16 | uint32(wire[seqOffset+3])<<24
		h.log = append(h.log, fmt.Sprintf("%d/%d@%v", dst, seq, h.t.Sub(base)))
		h.freq[seq]++
		return nil
	}
	h.rel.putBuf = func([]byte) { h.rets++ }
	return h
}

// advance moves the clock forward and runs one retransmit-timer pass.
func (h *relHarness) advance(d time.Duration) {
	h.t = h.t.Add(d)
	h.rel.scanRetransmits(h.t)
}

// pending returns the single pending entry toward dst (fails if not 1).
func (h *relHarness) pending(t *testing.T, dst int) *relPending {
	t.Helper()
	s := &h.rel.sends[dst]
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.pending) != 1 {
		t.Fatalf("pending[%d] holds %d entries, want 1", dst, len(s.pending))
	}
	for _, pe := range s.pending {
		return pe
	}
	return nil
}

func TestRetransmitBackoffDoublesToCap(t *testing.T) {
	const timeout = 10 * time.Millisecond
	h := newRelHarness(2, timeout)
	if h.rel.retxMax != 16*timeout {
		t.Fatalf("retxMax = %v, want %v", h.rel.retxMax, 16*timeout)
	}

	wire := make([]byte, headerSize)
	if err := h.rel.send(1, wire); err != nil {
		t.Fatal(err)
	}
	if len(h.log) != 1 {
		t.Fatalf("first transmission log = %v", h.log)
	}

	// Before the deadline nothing fires.
	h.advance(timeout - time.Millisecond)
	if len(h.log) != 1 {
		t.Fatalf("premature retransmit: %v", h.log)
	}

	// Each overdue pass doubles the backoff: 10→20→40→80→160, then the
	// 16×timeout cap holds it at 160ms for every later pass.
	wantBackoffs := []time.Duration{
		2 * timeout, 4 * timeout, 8 * timeout, 16 * timeout,
		16 * timeout, 16 * timeout,
	}
	for i, want := range wantBackoffs {
		pe := h.pending(t, 1)
		h.t = pe.deadline // jump exactly to the deadline (inclusive: !Before)
		h.rel.scanRetransmits(h.t)
		if got := h.pending(t, 1).backoff; got != want {
			t.Fatalf("pass %d: backoff = %v, want %v", i, got, want)
		}
		if len(h.log) != 2+i {
			t.Fatalf("pass %d: %d transmissions, want %d", i, len(h.log), 2+i)
		}
	}

	snap := h.rel.snapshot()
	if snap.Sent != 1 || snap.Retransmits != uint64(len(wantBackoffs)) {
		t.Errorf("snapshot = %+v", snap)
	}
	// Every retransmission observed its post-doubling backoff.
	hist := h.rel.obs.Hist(obs.HistRetxBackoffNs)
	if hist.Count != uint64(len(wantBackoffs)) {
		t.Errorf("backoff histogram count = %d, want %d", hist.Count, len(wantBackoffs))
	}
	var wantSum uint64
	for _, b := range wantBackoffs {
		wantSum += uint64(b)
	}
	if hist.Sum != wantSum {
		t.Errorf("backoff histogram sum = %d, want %d", hist.Sum, wantSum)
	}
}

func TestAckStopsRetransmitsAndResetsBackoff(t *testing.T) {
	const timeout = 5 * time.Millisecond
	h := newRelHarness(3, timeout)

	if err := h.rel.send(2, make([]byte, headerSize)); err != nil {
		t.Fatal(err)
	}
	// Let it back off twice.
	h.advance(timeout)
	h.advance(2 * timeout)
	if got := h.pending(t, 2).backoff; got != 4*timeout {
		t.Fatalf("backoff before ack = %v, want %v", got, 4*timeout)
	}
	sent := len(h.log)

	// Cumulative sack from rank 2 covering seq 0 retires the entry and
	// releases its retained buffer.
	h.rel.handleSack(header{src: 2, seq: 1})
	if h.rets != 1 {
		t.Errorf("putBuf calls = %d, want 1", h.rets)
	}
	if n := len(h.rel.sends[2].pending); n != 0 {
		t.Fatalf("%d entries still pending after ack", n)
	}
	if snap := h.rel.snapshot(); snap.Acked != 1 {
		t.Errorf("Acked = %d, want 1", snap.Acked)
	}

	// The timer goes quiet: no matter how far the clock advances, nothing
	// is retransmitted.
	for i := 0; i < 5; i++ {
		h.advance(100 * timeout)
	}
	if len(h.log) != sent {
		t.Fatalf("retransmit after ack: %v", h.log[sent:])
	}

	// A fresh send starts back at the base backoff, not the backed-off one.
	if err := h.rel.send(2, make([]byte, headerSize)); err != nil {
		t.Fatal(err)
	}
	pe := h.pending(t, 2)
	if pe.backoff != timeout {
		t.Errorf("new send backoff = %v, want reset to %v", pe.backoff, timeout)
	}
	if want := h.t.Add(timeout); !pe.deadline.Equal(want) {
		t.Errorf("new send deadline = %v, want %v", pe.deadline, want)
	}
}

func TestStaleSackRetiresNothing(t *testing.T) {
	h := newRelHarness(2, 5*time.Millisecond)
	if err := h.rel.send(1, make([]byte, headerSize)); err != nil {
		t.Fatal(err)
	}
	// A sack at the sender's own sequence horizon (seq 0 not yet received)
	// covers nothing; the entry must survive.
	h.rel.handleSack(header{src: 1, seq: 0})
	if n := len(h.rel.sends[1].pending); n != 1 {
		t.Fatalf("pending = %d after stale sack, want 1", n)
	}
	if snap := h.rel.snapshot(); snap.Acked != 0 {
		t.Errorf("Acked = %d, want 0", snap.Acked)
	}
	// Out-of-range acker ranks are ignored, not a crash.
	h.rel.handleSack(header{src: 99, seq: 7})
	h.rel.handleSack(header{src: -1, seq: 7})
}

func TestRetransmitRNRCountedAndRetried(t *testing.T) {
	const timeout = 5 * time.Millisecond
	h := newRelHarness(2, timeout)
	refuse := true
	inner := h.rel.xmit
	h.rel.xmit = func(dst int, wire []byte) error {
		if refuse {
			return rdma.ErrNoReceive
		}
		return inner(dst, wire)
	}

	// A refused first transmission is not an error: the entry stays pending.
	if err := h.rel.send(1, make([]byte, headerSize)); err != nil {
		t.Fatal(err)
	}
	if snap := h.rel.snapshot(); snap.Sent != 1 || snap.SendRNR != 1 {
		t.Fatalf("snapshot after refused send = %+v", snap)
	}

	// A refused retransmission counts both ways and keeps backing off.
	h.advance(timeout)
	snap := h.rel.snapshot()
	if snap.Retransmits != 1 || snap.SendRNR != 2 {
		t.Fatalf("snapshot after refused retransmit = %+v", snap)
	}

	// Once the fabric accepts, the retransmission lands on the wire.
	refuse = false
	h.advance(2 * timeout)
	if len(h.log) != 1 {
		t.Fatalf("transmit log = %v, want exactly the accepted retransmit", h.log)
	}
}

// TestOneDropOneRetransmit: of a window of 8 messages the fourth is lost.
// The receiver acks the three before it, buffers the four after it, and
// acks all eight once the gap fills: the gap costs exactly one re-send, of
// the lost message, however many were buffered behind it.
func TestOneDropOneRetransmit(t *testing.T) {
	const timeout = 5 * time.Millisecond
	h := newRelHarness(2, timeout)
	for k := 0; k < 8; k++ {
		if err := h.rel.send(1, make([]byte, headerSize)); err != nil {
			t.Fatal(err)
		}
	}
	h.rel.handleSack(header{src: 1, seq: 3}) // 0..2 arrived, 3 did not
	sent := len(h.log)
	h.advance(timeout)
	if got := h.log[sent:]; len(got) != 1 || got[0] != "1/3@5ms" {
		t.Fatalf("re-sends at the deadline: %v, want only seq 3", got)
	}
	h.rel.handleSack(header{src: 1, seq: 8}) // 3 filled the gap
	for i := 0; i < 4; i++ {
		h.advance(100 * timeout)
	}
	if snap := h.rel.snapshot(); snap.Retransmits != 1 || snap.Acked != 8 {
		t.Fatalf("snapshot = %+v, want 1 retransmit and 8 acked", snap)
	}
}

// TestRetransmitScheduleDeterministic runs the identical fake-clock script
// on two fresh cores and demands byte-identical transmit logs and
// snapshots: the backoff schedule has no jitter and no hidden global
// state.
func TestRetransmitScheduleDeterministic(t *testing.T) {
	run := func() ([]string, ReliabilitySnapshot) {
		h := newRelHarness(4, 7*time.Millisecond)
		for dst := 1; dst < 4; dst++ {
			for k := 0; k < 3; k++ {
				if err := h.rel.send(dst, make([]byte, headerSize)); err != nil {
					t.Fatal(err)
				}
			}
		}
		steps := []time.Duration{3, 5, 8, 13, 21, 34, 55, 89}
		for _, ms := range steps {
			h.advance(time.Duration(ms) * time.Millisecond)
		}
		h.rel.handleSack(header{src: 2, seq: 3}) // retire dst 2 entirely
		for _, ms := range steps {
			h.advance(time.Duration(ms) * time.Millisecond)
		}
		return h.log, h.rel.snapshot()
	}

	log1, snap1 := run()
	log2, snap2 := run()
	if snap1 != snap2 {
		t.Fatalf("snapshots diverge:\n  %+v\n  %+v", snap1, snap2)
	}
	if len(log1) != len(log2) {
		t.Fatalf("transmit logs diverge in length: %d vs %d", len(log1), len(log2))
	}
	for i := range log1 {
		if log1[i] != log2[i] {
			t.Fatalf("transmit logs diverge at %d: %q vs %q", i, log1[i], log2[i])
		}
	}
	if snap1.Acked != 3 || snap1.Sent != 9 || snap1.Retransmits == 0 {
		t.Errorf("schedule snapshot = %+v", snap1)
	}
}

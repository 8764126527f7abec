package bench

import "testing"

// TestMsgRateCoalesced runs the NC scenario with eager coalescing armed:
// the sequence's back-to-back sends must actually form multi-message
// frames, reported as the achieved mean batch width.
func TestMsgRateCoalesced(t *testing.T) {
	cfg := quick(Figure8Scenarios()[0]) // Optimistic-DPA NC
	cfg.CoalesceBytes = 4096
	cfg.CoalesceMsgs = 32
	res, err := RunMsgRate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != 32*5 || res.MsgPerSec <= 0 {
		t.Fatalf("bad result: %+v", res)
	}
	if res.BatchWidth <= 1 {
		t.Fatalf("batch width %.2f, want > 1 (coalescing never batched)", res.BatchWidth)
	}

	off := quick(Figure8Scenarios()[0])
	resOff, err := RunMsgRate(off)
	if err != nil {
		t.Fatal(err)
	}
	if resOff.BatchWidth != 0 {
		t.Fatalf("coalescing off reported batch width %.2f", resOff.BatchWidth)
	}
}

// TestModeledCoalescingGain is the perf acceptance criterion: for small
// (≤256 B) eager messages, the modeled message rate with coalescing at its
// best swept batch size must beat the uncoalesced model by at least 15%.
func TestModeledCoalescingGain(t *testing.T) {
	cfg := quick(Figure8Scenarios()[3]) // MPI-CPU
	cfg.PayloadBytes = 8
	base, err := RunMsgRate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cm := DefaultCostModel()
	baseRate := cm.ModelHost("base", base.Depth).MsgPerSec

	best := 0.0
	for _, msgs := range []int{2, 4, 8, 16, 32} {
		c := cfg
		c.CoalesceBytes = 16 << 10
		c.CoalesceMsgs = msgs
		res, err := RunMsgRate(c)
		if err != nil {
			t.Fatal(err)
		}
		wcm := cm
		wcm.BatchWidth = res.BatchWidth
		if r := wcm.ModelHost("coalesced", res.Depth).MsgPerSec; r > best {
			best = r
		}
	}
	if best < baseRate*1.15 {
		t.Fatalf("best coalesced modeled rate %.0f msg/s < 1.15 × base %.0f msg/s", best, baseRate)
	}
}

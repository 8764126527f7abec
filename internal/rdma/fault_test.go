package rdma

import (
	"testing"
	"time"
)

// faultyPair wires one QP pair on a fabric with the given plan and posts
// nothing; callers post receives and send as needed.
func faultyPair(t *testing.T, plan FaultPlan) (*QP, *QP, *CQ, *Fabric) {
	t.Helper()
	f := NewFabric()
	f.SetFaults(plan)
	cqB := NewCQ()
	a, b := f.ConnectPair(
		QPConfig{RecvCQ: NewCQ(), Depth: 1024},
		QPConfig{RecvCQ: cqB, Depth: 1024},
	)
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b, cqB, f
}

func TestParseFaultPlan(t *testing.T) {
	p, err := ParseFaultPlan("seed=7,drop=0.05,dup=0.02,delay=0.01,delayspan=3,rnr=0.04,stall=0.5,stalltime=2us")
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 7 || p.Drop != 0.05 || p.Duplicate != 0.02 || p.Delay != 0.01 ||
		p.DelaySpan != 3 || p.RNR != 0.04 || p.Stall != 0.5 || p.StallTime != 2*time.Microsecond {
		t.Fatalf("parsed plan = %+v", p)
	}
	if !p.Active() {
		t.Fatal("parsed plan inactive")
	}
	if p, err := ParseFaultPlan(""); err != nil || p.Active() {
		t.Fatalf("empty plan: %+v err=%v", p, err)
	}
	for _, bad := range []string{"drop", "drop=x", "unknown=1"} {
		if _, err := ParseFaultPlan(bad); err == nil {
			t.Fatalf("ParseFaultPlan(%q) accepted", bad)
		}
	}
}

func TestZeroPlanIsInactive(t *testing.T) {
	if (FaultPlan{}).Active() {
		t.Fatal("zero plan active")
	}
	if (FaultPlan{Seed: 99}).Active() {
		t.Fatal("seed-only plan active")
	}
	f := NewFabric()
	f.SetFaults(FaultPlan{Seed: 99})
	a, b := f.ConnectPair(QPConfig{RecvCQ: NewCQ()}, QPConfig{RecvCQ: NewCQ()})
	defer a.Close()
	defer b.Close()
	if a.inj != nil || b.inj != nil {
		t.Fatal("inactive plan armed injectors")
	}
}

func TestDropInjection(t *testing.T) {
	a, b, cqB, f := faultyPair(t, FaultPlan{Seed: 1, FaultRates: FaultRates{Drop: 1}})
	_ = b
	const n = 32
	for i := 0; i < n; i++ {
		b.PostRecv(make([]byte, 8), uint64(i))
		if err := a.Send([]byte{byte(i)}, uint32(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := cqB.Poll(0); ok {
		t.Fatal("dropped message was delivered")
	}
	if got := FaultSnapshotOf(f.Obs()).Dropped; got != n {
		t.Fatalf("Dropped = %d, want %d", got, n)
	}
}

func TestDuplicateInjection(t *testing.T) {
	a, b, cqB, f := faultyPair(t, FaultPlan{Seed: 1, FaultRates: FaultRates{Duplicate: 1}})
	const n = 8
	for i := 0; i < 2*n; i++ {
		b.PostRecv(make([]byte, 8), uint64(i))
	}
	for i := 0; i < n; i++ {
		if err := a.Send([]byte{byte(i)}, uint32(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 2*n; i++ {
		c, ok := cqB.WaitIndex(i)
		if !ok {
			t.Fatalf("missing completion %d", i)
		}
		if want := uint32(i / 2); c.Imm != want {
			t.Fatalf("completion %d: imm = %d, want %d (each message twice, in order)", i, c.Imm, want)
		}
	}
	if got := FaultSnapshotOf(f.Obs()).Duplicated; got != n {
		t.Fatalf("Duplicated = %d, want %d", got, n)
	}
}

func TestRNRInjection(t *testing.T) {
	a, b, _, f := faultyPair(t, FaultPlan{Seed: 1, FaultRates: FaultRates{RNR: 1}})
	b.PostRecv(make([]byte, 8), 0)
	for i := 0; i < 4; i++ {
		if err := a.Send([]byte("x"), 0, 0); err != ErrNoReceive {
			t.Fatalf("send %d: err = %v, want ErrNoReceive", i, err)
		}
	}
	if got := FaultSnapshotOf(f.Obs()).RNRs; got != 4 {
		t.Fatalf("RNRs = %d, want 4", got)
	}
}

func TestDelayReordersDelivery(t *testing.T) {
	// delay=1, span=1: message 0 is held and overtaken by message 1, then
	// released; message 2 is held next, and so on — pairwise swaps.
	a, b, cqB, f := faultyPair(t, FaultPlan{Seed: 1, FaultRates: FaultRates{Delay: 1, DelaySpan: 1}})
	const n = 8
	for i := 0; i < n; i++ {
		b.PostRecv(make([]byte, 8), uint64(i))
	}
	for i := 0; i < n; i++ {
		if err := a.Send([]byte{byte(i)}, uint32(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	want := []uint32{1, 0, 3, 2, 5, 4, 7, 6}
	for i := uint64(0); i < n; i++ {
		c, ok := cqB.WaitIndex(i)
		if !ok {
			t.Fatalf("missing completion %d", i)
		}
		if c.Imm != want[i] {
			t.Fatalf("delivery %d: imm = %d, want %d", i, c.Imm, want[i])
		}
	}
	if got := FaultSnapshotOf(f.Obs()).Delayed; got == 0 {
		t.Fatal("Delayed = 0")
	}
}

// collectImms drives a plan over one QP pair and returns the delivered
// immediate values in completion order.
func collectImms(t *testing.T, plan FaultPlan, n int) []uint32 {
	t.Helper()
	a, b, cqB, _ := faultyPair(t, plan)
	for i := 0; i < 2*n; i++ {
		b.PostRecv(make([]byte, 8), uint64(i))
	}
	for i := 0; i < n; i++ {
		if err := a.Send([]byte{byte(i)}, uint32(i), uint64(i)); err != nil && err != ErrNoReceive {
			t.Fatal(err)
		}
	}
	// Delivery is asynchronous: wait until the completion count stops
	// moving, then collect everything delivered.
	for {
		before := cqB.Ready()
		time.Sleep(20 * time.Millisecond)
		if cqB.Ready() == before {
			break
		}
	}
	var out []uint32
	for i := uint64(0); ; i++ {
		c, ok := cqB.Poll(i)
		if !ok {
			break
		}
		out = append(out, c.Imm)
	}
	return out
}

func TestFaultScheduleDeterministicPerSeed(t *testing.T) {
	plan := FaultPlan{Seed: 1234, FaultRates: FaultRates{Drop: 0.2, Duplicate: 0.1, Delay: 0.1, RNR: 0.05}}
	const n = 256
	first := collectImms(t, plan, n)
	second := collectImms(t, plan, n)
	if len(first) != len(second) {
		t.Fatalf("runs delivered %d vs %d messages", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("delivery %d differs: %d vs %d", i, first[i], second[i])
		}
	}
	otherSeed := plan
	otherSeed.Seed = 5678
	third := collectImms(t, otherSeed, n)
	same := len(third) == len(first)
	if same {
		for i := range first {
			if first[i] != third[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestSendControlBypassesFaults(t *testing.T) {
	a, b, cqB, _ := faultyPair(t, FaultPlan{Seed: 1, FaultRates: FaultRates{Drop: 1, RNR: 1}})
	b.PostRecv(make([]byte, 8), 3)
	if err := a.SendControl([]byte("ok"), 7, 0); err != nil {
		t.Fatal(err)
	}
	if c, ok := cqB.WaitIndex(0); !ok || c.Imm != 7 || string(c.Data) != "ok" {
		t.Fatalf("control message corrupted: %+v ok=%v", c, ok)
	}
}

func TestOversizedMessageErrorCompletion(t *testing.T) {
	a, b, _, cqB := pair(t)
	_ = b
	b.PostRecv(make([]byte, 4), 11)
	if err := a.Send([]byte("eight by"), 0, 0); err != nil {
		t.Fatal(err)
	}
	c, ok := cqB.WaitIndex(0)
	if !ok {
		t.Fatal("no completion")
	}
	if c.Err != ErrBufferSize {
		t.Fatalf("Err = %v, want ErrBufferSize", c.Err)
	}
	if c.Bytes != 8 {
		t.Fatalf("Bytes = %d, want the needed length 8", c.Bytes)
	}
	if len(c.Data) != 0 || cap(c.Data) != 4 {
		t.Fatalf("Data len=%d cap=%d, want the unfilled posted buffer", len(c.Data), cap(c.Data))
	}
	// The stream continues undisturbed after the error completion.
	b.PostRecv(make([]byte, 16), 12)
	if err := a.Send([]byte("fits"), 0, 0); err != nil {
		t.Fatal(err)
	}
	if c, ok := cqB.WaitIndex(1); !ok || c.Err != nil || string(c.Data) != "fits" {
		t.Fatalf("follow-up delivery broken: %+v ok=%v", c, ok)
	}
}

// TestFaultStreamKeyedByDirectedLink pins the one seed-mixing rule: a plan's
// verdicts are a function of (seed, link) alone, whatever dataplane draws
// them, the two directions of a pair fault independently, and a fabric
// rank's endpoint toward peer j draws from link rank*n+j.
func TestFaultStreamKeyedByDirectedLink(t *testing.T) {
	plan := FaultPlan{Seed: 42, FaultRates: FaultRates{Drop: 0.3, Duplicate: 0.2, Delay: 0.2, RNR: 0.1, Stall: 0.1}}
	verdicts := func(link int) (out [64]FaultVerdict) {
		s := plan.Stream(link, NewFabric().Obs())
		for i := range out {
			out[i] = s.Decide()
		}
		return out
	}
	const n = 3
	if verdicts(0*n+1) != verdicts(0*n+1) {
		t.Fatal("one link, one seed: two schedules")
	}
	if verdicts(0*n+1) == verdicts(1*n+0) {
		t.Fatal("the two directions of a pair share a schedule")
	}
	f := NewFabric()
	f.SetFaults(plan)
	ranks := f.Ranks(n)
	for _, r := range ranks {
		if r.Reliable() {
			t.Fatal("fabric rank reports reliable under an active plan")
		}
		if err := r.Start(NewRecvQueue(1), NewCQ()); err != nil {
			t.Fatal(err)
		}
	}
	want := verdicts(2*n + 1)
	got := ranks[2].Endpoint(1).(*QP).inj
	for i := range want {
		if v := got.Decide(); v != want[i] {
			t.Fatalf("rank 2 -> 1, send %d: verdict %+v, want link %d's %+v", i, v, 2*n+1, want[i])
		}
	}
	if (FaultPlan{Seed: 42}).Stream(1, f.Obs()) != nil {
		t.Fatal("inactive plan produced a stream")
	}
}

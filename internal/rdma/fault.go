package rdma

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// FaultRates is the per-QP fault model: independent probabilities applied
// to each two-sided send, mirroring the failure modes a real RC transport
// on BlueField-class hardware exhibits (§IV-B): packets lost or duplicated
// by retransmission races, delivery delayed past later packets, receiver
// -not-ready NAKs when the remote has no posted receive, and completion
// -queue backpressure stalling the send pipeline.
type FaultRates struct {
	// Drop is the probability a message is lost on the wire after the
	// local send completion (the sender believes it left the NIC).
	Drop float64
	// Duplicate is the probability a message is delivered twice, as a
	// hardware retransmission race would produce.
	Duplicate float64
	// Delay is the probability a message is held back and overtaken by
	// the next DelaySpan messages on the same QP before being delivered.
	Delay float64
	// DelaySpan is how many subsequent sends overtake a delayed message
	// (default 1). At most one message per QP is delayed at a time.
	DelaySpan int
	// RNR is the probability Send fails with ErrNoReceive — the
	// receiver-not-ready NAK the reliability layer must retry through.
	RNR float64
	// Stall is the probability a send is stalled by StallTime, modelling
	// completion-queue backpressure on the NIC pipeline.
	Stall float64
	// StallTime is the busy-wait charged per stall (default 1µs).
	StallTime time.Duration
}

// active reports whether any fault can ever fire under these rates.
func (r FaultRates) active() bool {
	return r.Drop > 0 || r.Duplicate > 0 || r.Delay > 0 || r.RNR > 0 || r.Stall > 0
}

// FaultPlan is a deterministic fault schedule for a whole fabric: default
// rates for every QP plus optional per-QP overrides, all driven by
// independent PRNG streams derived from one seed. Two runs with the same
// plan and the same per-QP send sequences inject faults into exactly the
// same messages, so any failure is reproducible from the seed alone.
type FaultPlan struct {
	// Seed drives every per-QP decision stream. Plans differing only in
	// Seed produce statistically independent schedules.
	Seed uint64
	// FaultRates is the default model applied to every QP.
	FaultRates
	// PerQP overrides the default rates for specific QPs, keyed by QP
	// creation index (ConnectPair assigns 2k to the first argument's QP
	// and 2k+1 to the second, for the k-th pair created).
	PerQP map[int]FaultRates
}

// Active reports whether the plan injects any fault anywhere. A zero
// FaultPlan is inactive and leaves the fabric's behaviour untouched.
func (p FaultPlan) Active() bool {
	if p.FaultRates.active() {
		return true
	}
	for _, r := range p.PerQP {
		if r.active() {
			return true
		}
	}
	return false
}

// rates returns the effective rates for QP id, with defaults filled.
func (p FaultPlan) rates(id int) FaultRates {
	r := p.FaultRates
	if o, ok := p.PerQP[id]; ok {
		r = o
	}
	if r.DelaySpan <= 0 {
		r.DelaySpan = 1
	}
	if r.StallTime <= 0 {
		r.StallTime = time.Microsecond
	}
	return r
}

// FaultSnapshot is a point-in-time copy of the fabric's fault counters,
// read from the fabric's observability sink (obs.CtrFault*).
type FaultSnapshot struct {
	Dropped    uint64
	Duplicated uint64
	Delayed    uint64
	RNRs       uint64
	Stalls     uint64
}

// String renders the snapshot as a compact counter list.
func (s FaultSnapshot) String() string {
	return fmt.Sprintf("dropped=%d duplicated=%d delayed=%d rnr=%d stalls=%d",
		s.Dropped, s.Duplicated, s.Delayed, s.RNRs, s.Stalls)
}

// Add folds another snapshot into s, for totals over several dataplanes.
func (s FaultSnapshot) Add(t FaultSnapshot) FaultSnapshot {
	s.Dropped += t.Dropped
	s.Duplicated += t.Duplicated
	s.Delayed += t.Delayed
	s.RNRs += t.RNRs
	s.Stalls += t.Stalls
	return s
}

// SetFaults installs a fault plan on the fabric. Call before ConnectPair:
// only QPs created after the call carry injectors. A plan for which
// Active() is false leaves the fabric lossless.
func (f *Fabric) SetFaults(p FaultPlan) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.faults = p
	f.faultsOn = p.Active()
}

// FaultStats returns a snapshot of the fault counters.
func (f *Fabric) FaultStats() FaultSnapshot { return FaultSnapshotOf(f.obs) }

// FaultSnapshotOf reads the fault counters out of any dataplane sink — the
// in-process fabric's or a netfabric transport's (both tally injected
// faults on the obs.CtrFault* range).
func FaultSnapshotOf(s *obs.Sink) FaultSnapshot {
	c := &s.Counters
	return FaultSnapshot{
		Dropped:    c.Load(obs.CtrFaultDropped),
		Duplicated: c.Load(obs.CtrFaultDuplicated),
		Delayed:    c.Load(obs.CtrFaultDelayed),
		RNRs:       c.Load(obs.CtrFaultRNR),
		Stalls:     c.Load(obs.CtrFaultStalls),
	}
}

// newInjector builds the decision stream for QP id, or returns nil when
// the plan is inactive for that QP.
func (f *Fabric) newInjector(id int) *injector {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.faultsOn {
		return nil
	}
	r := f.faults.rates(id)
	if !r.active() {
		return nil
	}
	return &injector{
		rates: r,
		rng:   splitmix64(f.faults.Seed ^ (uint64(id)+1)*0x9E3779B97F4A7C15),
		obs:   f.obs,
		qp:    id,
	}
}

// injector is one QP's deterministic fault stream. Decisions are a pure
// function of the plan seed, the QP id, and the per-QP send ordinal: each
// faultable send draws a fixed number of PRNG values under the injector
// lock, so concurrent senders serialize into one reproducible stream.
type injector struct {
	rates FaultRates
	obs   *obs.Sink
	qp    int

	mu  sync.Mutex
	rng uint64

	// held is the currently delayed message; it is delivered after
	// heldSpan subsequent sends have overtaken it.
	held     *heldMsg
	heldSpan int
}

// heldMsg is a delayed message: a private copy of the payload, since the
// sender may reuse its buffer long before the message is released.
type heldMsg struct {
	data []byte
	imm  uint32
}

// splitmix64 is the SplitMix64 PRNG step: a tiny, well-distributed
// generator whose whole state is one uint64, ideal for per-QP streams.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	z := x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Fault codes carried by EvFaultInject events (B payload word).
const (
	faultCodeDrop uint64 = iota
	faultCodeDup
	faultCodeDelay
	faultCodeRNR
	faultCodeStall
)

// note tallies one injected fault on counter ctr and, when the fabric sink
// is tracing, records an EvFaultInject event keyed by the QP id.
func (in *injector) note(ctr obs.Counter, code uint64) {
	in.obs.Counters.Inc(ctr)
	if in.obs.Enabled() {
		in.obs.Event(obs.EvFaultInject, in.qp, uint64(in.qp), code, 0)
	}
}

// next draws a uniform float64 in [0, 1).
func (in *injector) next() float64 {
	in.rng = splitmix64(in.rng)
	return float64(in.rng>>11) / (1 << 53)
}

// decision is the fault verdict for one send, drawn in a fixed order so
// the stream stays aligned regardless of which faults fire.
type decision struct {
	rnr   bool
	drop  bool
	dup   bool
	delay bool
	stall bool
}

// decide consumes one send's worth of PRNG draws.
func (in *injector) decide() decision {
	return decision{
		rnr:   in.next() < in.rates.RNR,
		drop:  in.next() < in.rates.Drop,
		dup:   in.next() < in.rates.Duplicate,
		delay: in.next() < in.rates.Delay,
		stall: in.next() < in.rates.Stall,
	}
}

// ParseFaultPlan parses the command-line fault syntax
// "seed=N,drop=P,dup=P,delay=P,delayspan=N,rnr=P,stall=P,stalltime=D"
// (any subset, comma-separated) into a FaultPlan. An empty string parses
// to the inactive zero plan.
func ParseFaultPlan(s string) (FaultPlan, error) {
	var p FaultPlan
	if s == "" {
		return p, nil
	}
	for _, field := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return p, fmt.Errorf("rdma: fault field %q is not key=value", field)
		}
		var err error
		switch strings.ToLower(key) {
		case "seed":
			p.Seed, err = strconv.ParseUint(val, 10, 64)
		case "drop":
			p.Drop, err = strconv.ParseFloat(val, 64)
		case "dup", "duplicate":
			p.Duplicate, err = strconv.ParseFloat(val, 64)
		case "delay":
			p.Delay, err = strconv.ParseFloat(val, 64)
		case "delayspan":
			p.DelaySpan, err = strconv.Atoi(val)
		case "rnr":
			p.RNR, err = strconv.ParseFloat(val, 64)
		case "stall":
			p.Stall, err = strconv.ParseFloat(val, 64)
		case "stalltime":
			p.StallTime, err = time.ParseDuration(val)
		default:
			return p, fmt.Errorf("rdma: unknown fault field %q", key)
		}
		if err != nil {
			return p, fmt.Errorf("rdma: fault field %q: %v", field, err)
		}
	}
	return p, nil
}

package rdma

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// FaultRates is the per-link fault model: independent probabilities applied
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
	// the next DelaySpan messages on the same link before being delivered.
	Delay float64
	// DelaySpan is how many subsequent sends overtake a delayed message
	// (default 1). At most one message per link is delayed at a time.
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

// FaultPlan is a deterministic fault schedule for a whole dataplane: one
// set of rates for every directed link, each link driven by its own PRNG
// stream derived from one seed. Two runs with the same plan and the same
// per-link send sequences inject faults into exactly the same messages, so
// any failure is reproducible from the seed alone.
type FaultPlan struct {
	// Seed drives every per-link decision stream. Plans differing only in
	// Seed produce statistically independent schedules.
	Seed uint64
	// FaultRates is the model applied to every link.
	FaultRates
}

// Active reports whether the plan injects any fault anywhere. A zero
// FaultPlan is inactive and leaves the dataplane's behaviour untouched.
func (p FaultPlan) Active() bool { return p.FaultRates.active() }

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

// SetFaults installs a fault plan on the fabric. Call before ConnectPair
// and Ranks: only links created after the call carry fault streams. A plan
// for which Active() is false leaves the fabric lossless.
func (f *Fabric) SetFaults(p FaultPlan) { f.faults = p }

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

// FaultStream is the deterministic fault schedule of one directed link,
// shared by every dataplane that injects faults (the in-process QP and
// netfabric's UDP wire). Verdicts are a pure function of the plan seed, the
// link and the send ordinal: each faultable send draws a fixed number of
// PRNG values, in a fixed order, while holding the stream's lock, so
// concurrent senders serialize into one reproducible stream. The lock also
// guards whatever the link keeps between sends (a delayed message), which
// is why it is the embedded, exported one.
type FaultStream struct {
	sync.Mutex
	// Rates are the plan's rates with DelaySpan and StallTime defaulted.
	Rates FaultRates

	rng  uint64
	sink *obs.Sink
	link int
}

// Stream returns the fault stream of one directed link, tallying on sink,
// or nil when the plan is inactive. Ranked dataplanes number the link
// src→dst of an n-rank job src*n+dst, so the two directions of a pair
// fault independently and one seed means one schedule per link whatever
// carries it; bare ConnectPair pairs use the QPs' creation indices.
func (p FaultPlan) Stream(link int, sink *obs.Sink) *FaultStream {
	if !p.Active() {
		return nil
	}
	r := p.FaultRates
	if r.DelaySpan <= 0 {
		r.DelaySpan = 1
	}
	if r.StallTime <= 0 {
		r.StallTime = time.Microsecond
	}
	return &FaultStream{
		Rates: r,
		rng:   splitmix64(p.Seed ^ (uint64(link)+1)*0x9E3779B97F4A7C15),
		sink:  sink,
		link:  link,
	}
}

// splitmix64 is the SplitMix64 PRNG step: a tiny, well-distributed
// generator whose whole state is one uint64, ideal for per-link streams.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	z := x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// next draws a uniform float64 in [0, 1).
func (s *FaultStream) next() float64 {
	s.rng = splitmix64(s.rng)
	return float64(s.rng>>11) / (1 << 53)
}

// FaultVerdict is what the stream decided for one send. A link applies the
// verdicts its medium can express and ignores the rest (a datagram socket
// has no NAK to return and no send pipeline to stall); every field is drawn
// regardless, so the stream stays aligned across links and media.
type FaultVerdict struct {
	RNR, Drop, Dup, Delay, Stall bool
}

// Decide consumes one send's worth of PRNG draws. Call with the lock held.
func (s *FaultStream) Decide() FaultVerdict {
	return FaultVerdict{
		RNR:   s.next() < s.Rates.RNR,
		Drop:  s.next() < s.Rates.Drop,
		Dup:   s.next() < s.Rates.Duplicate,
		Delay: s.next() < s.Rates.Delay,
		Stall: s.next() < s.Rates.Stall,
	}
}

// Note tallies one injected fault on ctr (one of obs.CtrFault*) and, when
// the sink is tracing, records an EvFaultInject event keyed by the link.
// The event's fault code is the counter's offset in the CtrFault* range.
func (s *FaultStream) Note(ctr obs.Counter) {
	s.sink.Counters.Inc(ctr)
	if s.sink.Enabled() {
		s.sink.Event(obs.EvFaultInject, s.link, uint64(s.link), uint64(ctr-obs.CtrFaultDropped), 0)
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

package obs

import (
	"runtime"
	"sort"
	"sync/atomic"
)

// Kind is the type tag of a recorded event. Every kind's A/B/C payload
// convention is documented here and in DESIGN.md §10; exporters use the
// table to label Chrome trace events.
type Kind uint8

const (
	// EvBlockLaunch: an arrival block began. A=block seq, B=message count,
	// C=post-horizon snapshot.
	EvBlockLaunch Kind = iota
	// EvBlockBarrierExit: a handler thread cleared the partial barrier.
	// A=block seq, B=tid.
	EvBlockBarrierExit
	// EvBlockSteal: a descriptor was taken back from a higher-sequence
	// block. A=thief block seq, B=victim block seq, C=descriptor slot.
	EvBlockSteal
	// EvBlockSettle: retirement validation finished. A=block seq,
	// B=results revalidated.
	EvBlockSettle
	// EvBlockRetire: the block retired and advanced the frontier.
	// A=block seq, B=message count, C=lifecycle nanoseconds.
	EvBlockRetire
	// EvCQDrain: one CQ drain batch was taken. A=completions drained,
	// B=cursor after the batch, C=match-bound subset size.
	EvCQDrain
	// EvMatchFast: a conflict resolved on the fast path. A=block seq,
	// B=tid.
	EvMatchFast
	// EvMatchSlow: a conflict resolved on the slow path. A=block seq,
	// B=tid.
	EvMatchSlow
	// EvUnexpectedPub: a message was published to the unexpected store.
	// A=block seq.
	EvUnexpectedPub
	// EvPostMatch: a PostRecv matched a stored unexpected message.
	// A=receive label, B=search depth.
	EvPostMatch
	// EvFaultInject: the fabric injected a fault. A=QP id, B=fault code
	// (0 drop, 1 dup, 2 delay, 3 rnr, 4 stall).
	EvFaultInject
	// EvFaultRepair: the reliability layer repaired the stream. A=source
	// rank, B=sequence, C=repair code (0 dup-dropped, 1 buffered
	// out-of-order).
	EvFaultRepair
	// EvRetransmit: a timeout-driven re-send. A=destination rank,
	// B=sequence, C=backoff nanoseconds after doubling.
	EvRetransmit
	// EvAck: a cumulative sack retired pending sends. A=acker rank,
	// B=cumulative sequence, C=entries retired.
	EvAck
	// EvAnalyzerShard: one per-rank analyzer replay shard ran.
	// A=destination rank, B=steps replayed, C=shard nanoseconds.
	EvAnalyzerShard
	// EvAnalyzerPhase: an analyzer pipeline phase completed. A=phase code
	// (0 schedule, 1 replay, 2 merge), B=phase nanoseconds.
	EvAnalyzerPhase
	// EvCoalesceFlush: an eager batch frame was flushed. A=flush reason
	// (0 size, 1 count, 2 sync, 3 timeout), B=sub-message count, C=frame
	// bytes on the wire; Worker=destination rank.
	EvCoalesceFlush
	// EvNetStall: a socket-transport send blocked on a saturated peer
	// queue. A=peer rank, B=frame bytes; Worker=peer rank.
	EvNetStall

	// NumKinds bounds the enum; it must stay last.
	NumKinds
)

// kindNames maps Kind values to stable export names.
var kindNames = [NumKinds]string{
	EvBlockLaunch:      "block_launch",
	EvBlockBarrierExit: "barrier_exit",
	EvBlockSteal:       "steal",
	EvBlockSettle:      "settle",
	EvBlockRetire:      "block_retire",
	EvCQDrain:          "cq_drain",
	EvMatchFast:        "match_fast",
	EvMatchSlow:        "match_slow",
	EvUnexpectedPub:    "unexpected_publish",
	EvPostMatch:        "post_match",
	EvFaultInject:      "fault_inject",
	EvFaultRepair:      "fault_repair",
	EvRetransmit:       "retransmit",
	EvAck:              "ack",
	EvAnalyzerShard:    "analyzer_shard",
	EvAnalyzerPhase:    "analyzer_phase",
	EvNetStall:         "net_stall",
	EvCoalesceFlush:    "coalesce_flush",
}

// String returns the kind's stable export name.
func (k Kind) String() string {
	if k < NumKinds {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one decoded trace record. Events are fixed-size and
// pointer-free; the meaning of A, B, C depends on Kind.
type Event struct {
	// Seq is the record's position in its ring's write stream (monotone
	// per ring; overwritten records leave gaps).
	Seq uint64
	// Nano is the record time in nanoseconds since the sink's epoch.
	Nano int64
	// Kind tags the payload.
	Kind Kind
	// Worker is the recording worker lane (DPA tid, rank, or 0).
	Worker int32
	// A, B, C are the kind-specific payload words.
	A, B, C uint64
}

// slot is one ring entry. Every field is an atomic word, so a snapshot
// reader never races a writer in the -race sense; the marker makes torn
// reads detectable (seqlock): a writer claims the slot by CAS-ing the
// marker to the odd value 2*pos+1, stores the payload, then publishes
// 2*pos+2. A reader accepts a slot only when the marker is even, nonzero,
// and unchanged across the payload loads.
type slot struct {
	marker atomic.Uint64
	nano   atomic.Int64
	meta   atomic.Uint64 // kind<<32 | uint32(worker)
	a      atomic.Uint64
	b      atomic.Uint64
	c      atomic.Uint64
}

// ring is one worker lane's bounded event buffer. Writers reserve
// positions with one atomic add and overwrite the oldest records when the
// ring wraps; recording never blocks and never allocates.
type ring struct {
	head  atomic.Uint64
	slots []slot // len is a power of two
}

// record writes one event at the next position. Two writers share a slot
// only when one laps the other by a full ring; the claim CAS makes the
// overlap safe (the lapped writer's record is simply lost, counted as
// overwritten).
func (r *ring) record(nano int64, k Kind, worker int32, a, b, c uint64) {
	pos := r.head.Add(1) - 1
	s := &r.slots[pos&uint64(len(r.slots)-1)]
	for {
		m := s.marker.Load()
		// Claim only forward positions: if another writer already claimed a
		// LATER lap of this slot, drop this record rather than resurrecting
		// an older position.
		if m >= 2*pos+1 {
			return
		}
		if m&1 == 0 && s.marker.CompareAndSwap(m, 2*pos+1) {
			break
		}
		runtime.Gosched() // a lapping writer is mid-write; yield and retry
	}
	s.nano.Store(nano)
	s.meta.Store(uint64(k)<<32 | uint64(uint32(worker)))
	s.a.Store(a)
	s.b.Store(b)
	s.c.Store(c)
	s.marker.Store(2*pos + 2)
}

// snapshot appends every consistent record in the ring to out.
func (r *ring) snapshot(out []Event) []Event {
	for i := range r.slots {
		s := &r.slots[i]
		for {
			m1 := s.marker.Load()
			if m1 == 0 || m1&1 != 0 {
				break // empty or mid-write: skip
			}
			ev := Event{
				Seq:  (m1 - 2) / 2,
				Nano: s.nano.Load(),
			}
			meta := s.meta.Load()
			ev.Kind = Kind(meta >> 32)
			ev.Worker = int32(uint32(meta))
			ev.A = s.a.Load()
			ev.B = s.b.Load()
			ev.C = s.c.Load()
			if s.marker.Load() == m1 {
				out = append(out, ev)
				break
			}
			// A writer moved the slot under us; retry against the new record.
		}
	}
	return out
}

// recorded returns the number of records ever written to the ring.
func (r *ring) recorded() uint64 { return r.head.Load() }

// dropped returns how many records were overwritten by ring wrap.
func (r *ring) dropped() uint64 {
	n := r.head.Load()
	if cap := uint64(len(r.slots)); n > cap {
		return n - cap
	}
	return 0
}

// sortEvents orders a merged snapshot by time, then sequence, for stable
// export.
func sortEvents(evs []Event) {
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].Nano != evs[j].Nano {
			return evs[i].Nano < evs[j].Nano
		}
		return evs[i].Seq < evs[j].Seq
	})
}

// Package obs is the unified observability layer: low-overhead event
// tracing, typed counters, and fixed-bucket latency histograms for every
// layer of the offloaded-matching stack (DESIGN.md §10).
//
// The design targets the arrival hot path. Counters are enum-indexed
// atomics (one indexed atomic add per record, no lookup; a writer that
// already holds a lock may count under it and fold, see OnFold); events go to
// per-worker lock-free ring buffers of fixed-size seqlock-stamped records
// (one atomic reservation plus a handful of atomic stores, overwriting the
// oldest records when full); and the whole event path is gated on a single
// branch — a Sink with tracing disabled (or a nil Sink) returns before
// evaluating anything. BenchmarkArrivalHotPath asserts the disabled path
// stays allocation-free; EXPERIMENTS.md records the enabled overhead.
//
// Snapshots export as structured JSON (WriteJSON) and as Chrome
// trace_event JSON (WriteTrace) loadable in chrome://tracing or Perfetto.
package obs

import (
	"sync"
	"time"
)

// DefaultTraceEvents is the per-ring record capacity used when tracing is
// requested without an explicit size.
const DefaultTraceEvents = 1 << 14

// DefaultRings is the worker-lane count used when tracing is requested
// without an explicit shard count.
const DefaultRings = 8

// Options configures a Sink.
type Options struct {
	// TraceEvents enables event tracing when positive: each ring holds
	// TraceEvents records (rounded up to a power of two), overwriting the
	// oldest when full. Zero leaves tracing disabled — the counter and
	// histogram surfaces still work, and the event path is one branch.
	TraceEvents int
	// Rings is the number of per-worker ring shards (default DefaultRings
	// when tracing is enabled). Workers map to shards by id modulo Rings.
	Rings int
}

// Tracing returns o with tracing enabled at the default sizes, keeping any
// explicit sizes already set.
func (o Options) Tracing() Options {
	if o.TraceEvents <= 0 {
		o.TraceEvents = DefaultTraceEvents
	}
	return o
}

// Sink is one observability domain: a counter set, histograms, and
// (optionally) event rings sharing one time epoch. Every method is safe on
// a nil receiver — a nil *Sink is the always-compiled disabled layer, and
// costs its callers a single branch.
type Sink struct {
	// Counters is the sink's counter set. Callers with a guaranteed
	// non-nil sink may use it directly; CounterAdd and friends are the
	// nil-safe equivalents.
	Counters CounterSet

	hists [NumHists]Histogram
	rings []ring
	base  time.Time

	foldMu sync.Mutex
	folder Folder // the writers that count under their own locks (OnFold)
}

// Folder is a writer that keeps some of a sink's counts in plain words under
// locks of its own; Fold carries them into the sink.
type Folder interface{ Fold() }

// folderPair is two writers on one sink.
type folderPair struct{ a, b Folder }

func (p folderPair) Fold() { p.a.Fold(); p.b.Fold() }

// New returns a sink. With opts.TraceEvents == 0 the sink records counters
// and histograms only; Event becomes a near-free no-op.
func New(opts Options) *Sink {
	s := &Sink{base: time.Now()}
	if opts.TraceEvents > 0 {
		n := opts.Rings
		if n <= 0 {
			n = DefaultRings
		}
		cap := 1
		for cap < opts.TraceEvents {
			cap <<= 1
		}
		s.rings = make([]ring, n)
		for i := range s.rings {
			s.rings[i].slots = make([]slot, cap)
		}
	}
	return s
}

// OnFold registers a writer (core.OptimisticMatcher) that counts into this
// sink in plain words under locks it already holds. Every reader in this
// package folds first and a reader that loads Counters directly calls Fold,
// so none has to know the writer exists. f.Fold takes the writer's locks:
// never read the sink while holding one of them. The first writer costs no
// allocation. A writer that moves on to another sink leaves by Detach.
func (s *Sink) OnFold(f Folder) {
	s.foldMu.Lock()
	if s.folder != nil {
		f = folderPair{s.folder, f}
	}
	s.folder = f
	s.foldMu.Unlock()
}

// Detach folds f one last time and unregisters it: the sink keeps what f
// counted, and f may go on to count for another sink. Never call it holding
// one of f's locks.
func (s *Sink) Detach(f Folder) {
	s.foldMu.Lock()
	defer s.foldMu.Unlock()
	f.Fold()
	s.folder = without(s.folder, f)
}

// without returns the writers of x less f.
func without(x, f Folder) Folder {
	switch p := x.(type) {
	case nil:
		return nil
	case folderPair:
		a, b := without(p.a, f), without(p.b, f)
		if a == nil {
			return b
		}
		if b == nil {
			return a
		}
		return folderPair{a, b}
	}
	if x == f {
		return nil
	}
	return x
}

// Fold brings Counters and the histograms up to date (nil-safe). Folding
// twice adds nothing.
func (s *Sink) Fold() {
	if s == nil {
		return
	}
	s.foldMu.Lock()
	if s.folder != nil {
		s.folder.Fold()
	}
	s.foldMu.Unlock()
}

// MergeHist adds d's samples and empties it, for a fold to call; the caller
// holds the lock that guards d.
func (s *Sink) MergeHist(h Hist, d *HistDelta) { s.hists[h].merge(d) }

// Merge adds from's counters and histograms to s, folding from first: a
// long-lived sink (a daemon tenant's) absorbing one that is going away.
func (s *Sink) Merge(from *Sink) {
	if from == nil {
		return
	}
	from.Fold()
	for c := Counter(0); c < NumCounters; c++ {
		if v := from.Counters.Load(c); v != 0 {
			s.Counters.Add(c, v)
		}
	}
	for h := range from.hists {
		var d HistDelta
		src := &from.hists[h]
		for i := range d.buckets {
			d.buckets[i] = src.buckets[i].Load()
		}
		d.sum = src.sum.Load()
		s.MergeHist(Hist(h), &d)
	}
}

// Enabled reports whether the sink records events. It is the one branch
// call sites pay when tracing is off; guard any argument computation with
// it.
func (s *Sink) Enabled() bool { return s != nil && len(s.rings) > 0 }

// Now returns nanoseconds since the sink's epoch (0 on a nil sink).
func (s *Sink) Now() int64 {
	if s == nil {
		return 0
	}
	return time.Since(s.base).Nanoseconds()
}

// Event records one typed event on worker's ring lane. It is a no-op
// unless Enabled.
func (s *Sink) Event(k Kind, worker int, a, b, c uint64) {
	if s == nil || len(s.rings) == 0 {
		return
	}
	w := worker
	if w < 0 {
		w = 0
	}
	s.rings[w%len(s.rings)].record(s.Now(), k, int32(worker), a, b, c)
}

// EventAt is Event with a caller-supplied timestamp (nanoseconds since the
// sink's epoch, from a prior Now call), for spans whose start was sampled
// earlier.
func (s *Sink) EventAt(nano int64, k Kind, worker int, a, b, c uint64) {
	if s == nil || len(s.rings) == 0 {
		return
	}
	w := worker
	if w < 0 {
		w = 0
	}
	s.rings[w%len(s.rings)].record(nano, k, int32(worker), a, b, c)
}

// CounterAdd is a nil-safe Counters.Add.
func (s *Sink) CounterAdd(i Counter, v uint64) {
	if s == nil {
		return
	}
	s.Counters.Add(i, v)
}

// CounterInc is a nil-safe Counters.Inc.
func (s *Sink) CounterInc(i Counter) {
	if s == nil {
		return
	}
	s.Counters.Inc(i)
}

// Observe records one histogram sample (nil-safe).
func (s *Sink) Observe(h Hist, v uint64) {
	if s == nil {
		return
	}
	s.hists[h].Observe(v)
}

// Hist returns a snapshot of one histogram (zero on a nil sink).
func (s *Sink) Hist(h Hist) HistSnapshot {
	if s == nil {
		return HistSnapshot{}
	}
	s.Fold()
	return s.hists[h].Snapshot()
}

// Events returns every consistent record across all rings, ordered by
// time then sequence. Records overwritten mid-snapshot are skipped, never
// torn.
func (s *Sink) Events() []Event {
	if s == nil || len(s.rings) == 0 {
		return nil
	}
	var out []Event
	for i := range s.rings {
		out = s.rings[i].snapshot(out)
	}
	sortEvents(out)
	return out
}

// Recorded returns the total events ever recorded and how many were lost
// to ring overwrite.
func (s *Sink) Recorded() (recorded, dropped uint64) {
	if s == nil {
		return 0, 0
	}
	for i := range s.rings {
		recorded += s.rings[i].recorded()
		dropped += s.rings[i].dropped()
	}
	return recorded, dropped
}

// Named pairs a sink with the name exported snapshots carry (e.g. "rank0",
// "fabric").
type Named struct {
	Name string
	Sink *Sink
}

// Snapshot is one sink's exportable state.
type Snapshot struct {
	Name     string                  `json:"name,omitempty"`
	Counters map[string]uint64       `json:"counters"`
	Hists    map[string]HistSnapshot `json:"histograms,omitempty"`
	Recorded uint64                  `json:"recorded_events,omitempty"`
	Dropped  uint64                  `json:"dropped_events,omitempty"`
}

// Snapshot assembles the sink's counter and histogram state.
func (s *Sink) Snapshot() Snapshot {
	if s == nil {
		return Snapshot{Counters: map[string]uint64{}}
	}
	s.Fold()
	out := Snapshot{Counters: s.Counters.Snapshot()}
	for h := Hist(0); h < NumHists; h++ {
		hs := s.hists[h].Snapshot()
		if hs.Count == 0 {
			continue
		}
		if out.Hists == nil {
			out.Hists = make(map[string]HistSnapshot)
		}
		out.Hists[h.String()] = hs
	}
	out.Recorded, out.Dropped = s.Recorded()
	return out
}

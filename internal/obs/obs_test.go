package obs

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestCounterSet(t *testing.T) {
	var s CounterSet
	s.Inc(CtrBlocks)
	s.Add(CtrMessages, 41)
	s.Inc(CtrMessages)
	if got := s.Load(CtrBlocks); got != 1 {
		t.Errorf("CtrBlocks = %d, want 1", got)
	}
	if got := s.Load(CtrMessages); got != 42 {
		t.Errorf("CtrMessages = %d, want 42", got)
	}

	s.Max(CtrArriveMaxDepth, 7)
	s.Max(CtrArriveMaxDepth, 3) // must not lower
	s.Max(CtrArriveMaxDepth, 9)
	if got := s.Load(CtrArriveMaxDepth); got != 9 {
		t.Errorf("Max merge = %d, want 9", got)
	}

	snap := s.Snapshot()
	if snap["messages"] != 42 || snap["blocks"] != 1 || snap["arrive_max_depth"] != 9 {
		t.Errorf("snapshot = %v", snap)
	}
	if _, ok := snap["conflicts"]; ok {
		t.Error("snapshot includes zero counter")
	}

	s.Reset(CtrMessages)
	if s.Load(CtrMessages) != 0 || s.Load(CtrBlocks) != 1 {
		t.Error("selective Reset touched the wrong counters")
	}
	s.Reset()
	if s.Load(CtrBlocks) != 0 || s.Load(CtrArriveMaxDepth) != 0 {
		t.Error("full Reset left residue")
	}
}

func TestCounterNamesComplete(t *testing.T) {
	seen := make(map[string]Counter)
	for c := Counter(0); c < NumCounters; c++ {
		name := c.String()
		if name == "" || name == "unknown" {
			t.Errorf("counter %d has no name", c)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("counters %d and %d share the name %q", prev, c, name)
		}
		seen[name] = c
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{0, 1, 2, 3, 4, 1 << 20} {
		h.Observe(v)
	}
	snap := h.Snapshot()
	if snap.Count != 6 {
		t.Errorf("Count = %d, want 6", snap.Count)
	}
	if want := uint64(0 + 1 + 2 + 3 + 4 + 1<<20); snap.Sum != want {
		t.Errorf("Sum = %d, want %d", snap.Sum, want)
	}
	// bits.Len64 bucketing: 0→0, 1→1, {2,3}→2, 4→3, 1<<20→21.
	want := []uint64{1, 1, 2, 1}
	for i, w := range want {
		if snap.Buckets[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, snap.Buckets[i], w)
		}
	}
	if len(snap.Buckets) != 22 || snap.Buckets[21] != 1 {
		t.Errorf("trimmed buckets = %v (len %d), want last index 21", snap.Buckets, len(snap.Buckets))
	}
	// Oversized values saturate into the last bucket instead of escaping.
	h.Observe(1 << 63)
	if got := h.Snapshot().Buckets[HistBuckets-1]; got != 1 {
		t.Errorf("saturating bucket = %d, want 1", got)
	}
}

func TestNilSinkSafe(t *testing.T) {
	var s *Sink
	if s.Enabled() {
		t.Error("nil sink reports Enabled")
	}
	// None of these may panic.
	s.Event(EvBlockLaunch, 0, 1, 2, 3)
	s.EventAt(5, EvBlockLaunch, 0, 1, 2, 3)
	s.CounterAdd(CtrBlocks, 1)
	s.CounterInc(CtrBlocks)
	s.Observe(HistBlockNs, 1)
	if s.Now() != 0 {
		t.Error("nil sink Now != 0")
	}
	if s.Events() != nil {
		t.Error("nil sink has events")
	}
	if r, d := s.Recorded(); r != 0 || d != 0 {
		t.Error("nil sink recorded events")
	}
	if h := s.Hist(HistBlockNs); h.Count != 0 {
		t.Error("nil sink has histogram samples")
	}
	if snap := s.Snapshot(); len(snap.Counters) != 0 {
		t.Error("nil sink snapshot has counters")
	}
}

func TestDisabledSinkDropsEvents(t *testing.T) {
	s := New(Options{}) // counters only
	if s.Enabled() {
		t.Error("counters-only sink reports Enabled")
	}
	s.Event(EvBlockLaunch, 0, 1, 2, 3)
	if evs := s.Events(); evs != nil {
		t.Errorf("disabled sink recorded %d events", len(evs))
	}
	s.Counters.Inc(CtrBlocks)
	if s.Snapshot().Counters["blocks"] != 1 {
		t.Error("disabled sink lost counters")
	}
}

func TestSinkEventsRoundTrip(t *testing.T) {
	s := New(Options{TraceEvents: 16, Rings: 2})
	if !s.Enabled() {
		t.Fatal("tracing sink not Enabled")
	}
	s.Event(EvBlockLaunch, 3, 10, 20, 30)
	s.Event(EvBlockRetire, 5, 10, 20, 999)
	evs := s.Events()
	if len(evs) != 2 {
		t.Fatalf("Events() = %d records, want 2", len(evs))
	}
	// Sorted by time: launch first.
	if evs[0].Kind != EvBlockLaunch || evs[0].Worker != 3 ||
		evs[0].A != 10 || evs[0].B != 20 || evs[0].C != 30 {
		t.Errorf("launch event = %+v", evs[0])
	}
	if evs[1].Kind != EvBlockRetire || evs[1].C != 999 {
		t.Errorf("retire event = %+v", evs[1])
	}
	if rec, drop := s.Recorded(); rec != 2 || drop != 0 {
		t.Errorf("Recorded() = %d, %d; want 2, 0", rec, drop)
	}
}

func TestRingOverwriteAccounting(t *testing.T) {
	s := New(Options{TraceEvents: 4, Rings: 1})
	const n = 25
	for i := 0; i < n; i++ {
		s.Event(EvCQDrain, 0, uint64(i), 0, 0)
	}
	rec, drop := s.Recorded()
	if rec != n {
		t.Errorf("recorded = %d, want %d", rec, n)
	}
	if drop != n-4 {
		t.Errorf("dropped = %d, want %d", drop, n-4)
	}
	evs := s.Events()
	if len(evs) != 4 {
		t.Fatalf("ring of 4 holds %d events", len(evs))
	}
	for _, e := range evs {
		// Only the newest lap survives.
		if e.A < n-4 {
			t.Errorf("stale record survived overwrite: %+v", e)
		}
	}
}

func TestEventWorkerLaneMapping(t *testing.T) {
	s := New(Options{TraceEvents: 8, Rings: 2})
	// Negative workers must not index out of range; they clamp to lane 0.
	s.Event(EvCQDrain, -7, 1, 0, 0)
	evs := s.Events()
	if len(evs) != 1 || evs[0].Worker != -7 {
		t.Fatalf("events = %+v", evs)
	}
}

func TestKindNamesComplete(t *testing.T) {
	for k := Kind(0); k < NumKinds; k++ {
		if k.String() == "" {
			t.Errorf("kind %d has no name", k)
		}
	}
	if NumKinds.String() != "unknown" {
		t.Error("out-of-range kind not mapped to unknown")
	}
}

func TestWriteJSONStructure(t *testing.T) {
	s := New(Options{})
	s.Counters.Add(CtrMatched, 11)
	s.Observe(HistDrainBatch, 4)

	var buf bytes.Buffer
	if err := WriteJSON(&buf, []Named{{Name: "rank0", Sink: s}}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Sinks []struct {
			Name     string                  `json:"name"`
			Counters map[string]uint64       `json:"counters"`
			Hists    map[string]HistSnapshot `json:"histograms"`
		} `json:"sinks"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("WriteJSON output is not JSON: %v", err)
	}
	if len(doc.Sinks) != 1 || doc.Sinks[0].Name != "rank0" {
		t.Fatalf("sinks = %+v", doc.Sinks)
	}
	if doc.Sinks[0].Counters["matched"] != 11 {
		t.Errorf("counters = %v", doc.Sinks[0].Counters)
	}
	if doc.Sinks[0].Hists["drain_batch"].Count != 1 {
		t.Errorf("histograms = %v", doc.Sinks[0].Hists)
	}
}

func TestWriteTraceStructure(t *testing.T) {
	s := New(Options{TraceEvents: 64, Rings: 1})
	launch := s.Now()
	s.EventAt(launch, EvBlockLaunch, 2, 7, 32, 0)
	s.Event(EvMatchFast, 2, 7, 2, 0)
	s.EventAt(launch+1500, EvBlockRetire, 2, 7, 32, 1500)
	// A retire with no recorded launch renders as an instant, not a span.
	s.Event(EvBlockRetire, 0, 99, 1, 1)

	var buf bytes.Buffer
	if err := WriteTrace(&buf, []Named{{Name: "rank1", Sink: s}}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Cat  string         `json:"cat"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("WriteTrace output is not JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ns" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}

	var meta, spans, instants int
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			meta++
			if e.Name != "process_name" || e.Args["name"] != "rank1" {
				t.Errorf("metadata = %+v", e)
			}
		case "X":
			spans++
			if e.Name != "block 7" || e.Dur <= 0 || e.Tid != 2 {
				t.Errorf("span = %+v", e)
			}
		case "i":
			instants++
		default:
			t.Errorf("unexpected phase %q", e.Ph)
		}
	}
	if meta != 1 || spans != 1 || instants != 2 {
		t.Errorf("meta/spans/instants = %d/%d/%d, want 1/1/2 (match_fast + orphan retire)", meta, spans, instants)
	}
}

func TestOptionsTracing(t *testing.T) {
	o := Options{}.Tracing()
	if o.TraceEvents != DefaultTraceEvents {
		t.Errorf("Tracing() TraceEvents = %d", o.TraceEvents)
	}
	o = Options{TraceEvents: 128, Rings: 3}.Tracing()
	if o.TraceEvents != 128 || o.Rings != 3 {
		t.Error("Tracing() clobbered explicit sizes")
	}
	// Capacity rounds up to a power of two.
	s := New(Options{TraceEvents: 100, Rings: 1})
	for i := 0; i < 128; i++ {
		s.Event(EvCQDrain, 0, uint64(i), 0, 0)
	}
	if _, drop := s.Recorded(); drop != 0 {
		t.Errorf("128-capacity ring dropped %d of 128", drop)
	}
}

package obs

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// localWriter is a writer of the kind OnFold exists for: it counts and
// samples in plain words under its own lock and hands them over when asked.
type localWriter struct {
	mu      sync.Mutex
	pending uint64
	depth   HistDelta
	sink    *Sink
	folds   int
}

func (w *localWriter) record(v uint64) {
	w.mu.Lock()
	w.pending++
	w.depth.Observe(v)
	w.mu.Unlock()
}

func (w *localWriter) Fold() {
	w.mu.Lock()
	w.sink.Counters.Add(CtrMatched, w.pending)
	w.pending = 0
	w.sink.MergeHist(HistPostDepth, &w.depth)
	w.folds++
	w.mu.Unlock()
}

// TestCountersFoldOnce: every reader of a sink runs the registered folds
// first — Snapshot, Hist, the JSON and Prometheus exports, and Fold for
// readers that load Counters directly — each pending count arrives exactly
// once however many readers ask, and a sink nobody registered on (or a nil
// one) folds for free.
func TestCountersFoldOnce(t *testing.T) {
	s := New(Options{})
	w, second := &localWriter{sink: s}, &localWriter{sink: s}
	s.OnFold(w)
	s.OnFold(second) // two writers on one sink both fold

	readers := []struct {
		name string
		read func() (matched uint64, samples uint64)
	}{
		{"Snapshot", func() (uint64, uint64) {
			snap := s.Snapshot()
			return snap.Counters["matched"], snap.Hists["post_depth"].Count
		}},
		{"Hist", func() (uint64, uint64) {
			h := s.Hist(HistPostDepth)
			return s.Counters.Load(CtrMatched), h.Count
		}},
		{"Fold", func() (uint64, uint64) {
			s.Fold()
			return s.Counters.Load(CtrMatched), s.hists[HistPostDepth].count.Load()
		}},
		{"WriteProm", func() (uint64, uint64) {
			var buf bytes.Buffer
			if err := WriteProm(&buf, "t", []LabeledSinks{{Sinks: []*Sink{s, nil}}}); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(buf.String(), "t_matched_total ") || !strings.Contains(buf.String(), "t_post_depth_count ") {
				t.Fatalf("exposition lacks the folded families:\n%s", buf.String())
			}
			return s.Counters.Load(CtrMatched), s.hists[HistPostDepth].count.Load()
		}},
		{"WriteJSON", func() (uint64, uint64) {
			if err := WriteJSON(&bytes.Buffer{}, []Named{{Name: "s", Sink: s}}); err != nil {
				t.Fatal(err)
			}
			return s.Counters.Load(CtrMatched), s.hists[HistPostDepth].count.Load()
		}},
	}
	var total uint64
	for i, r := range readers {
		for n := 0; n <= i; n++ {
			w.record(uint64(10 * n))
			second.record(uint64(n))
			total += 2
		}
		if matched, samples := r.read(); matched != total || samples != total {
			t.Errorf("%s: read %d matched and %d samples, %d were recorded", r.name, matched, samples, total)
		}
		// Asking again moves nothing.
		if matched, samples := r.read(); matched != total || samples != total {
			t.Errorf("%s, again: read %d matched and %d samples, %d were recorded", r.name, matched, samples, total)
		}
	}
	if w.folds < 2*len(readers) || second.folds != w.folds {
		t.Errorf("%d and %d folds for %d reads", w.folds, second.folds, 2*len(readers))
	}

	var nilSink *Sink
	nilSink.Fold()
	New(Options{}).Fold()
}

// TestDetachKeepsCountsAndOtherWriters: Detach folds the writer one last
// time and unregisters it, so the sink keeps what it counted and sees
// nothing it counts afterwards, while the other writers on the sink, in
// whatever position, still fold.
func TestDetachKeepsCountsAndOtherWriters(t *testing.T) {
	s := New(Options{})
	ws := []*localWriter{{sink: s}, {sink: s}, {sink: s}}
	for _, w := range ws {
		s.OnFold(w)
		w.record(1)
	}
	s.Detach(ws[1]) // the middle one of three
	if got := s.Counters.Load(CtrMatched); got < 1 {
		t.Fatalf("the detached writer's count did not reach the sink: %d", got)
	}
	for _, w := range ws {
		w.record(1)
	}
	s.Fold()
	if got := s.Counters.Load(CtrMatched); got != 5 || ws[1].pending != 1 {
		t.Fatalf("sink counts %d (want 5), detached writer holds %d (want 1)", got, ws[1].pending)
	}
	s.Detach(ws[0])
	s.Detach(ws[2])
	if s.folder != nil {
		t.Fatalf("writers left after every one detached: %v", s.folder)
	}
}

// TestHistDeltaMatchesObserve: samples carried in bulk land where samples
// observed one at a time do, zero and the absorbing last bucket included,
// and the delta is empty afterwards.
func TestHistDeltaMatchesObserve(t *testing.T) {
	values := []uint64{0, 0, 1, 2, 3, 4, 1000, 1 << 20, 1 << 40, ^uint64(0) >> 1}
	var direct, bulk Histogram
	var d HistDelta
	for _, v := range values {
		direct.Observe(v)
		d.Observe(v)
	}
	bulk.merge(&d)
	if got, want := bulk.Snapshot(), direct.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("bulk %+v, one at a time %+v", got, want)
	}
	if d != (HistDelta{}) {
		t.Fatalf("delta not emptied: %+v", d)
	}
	bulk.merge(&d) // nothing pending: nothing moves
	if got, want := bulk.Snapshot(), direct.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("an empty merge moved the histogram: %+v", got)
	}
}

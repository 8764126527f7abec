package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// A span's self time is its duration minus what its children cover;
// children are clipped to their parent.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: spRep, Parent: -1, Start: 0, End: 100},
		{Name: spSeq, Parent: 0, Start: 10, End: 60},
		{Name: spIsend, Parent: 1, Start: 10, End: 25},
		{Name: spIrecv, Parent: 1, Start: 30, End: 50},
		{Name: spSeq, Parent: 0, Start: 70, End: 120}, // runs past its parent: clipped to 70..100
		{Name: spSync, Parent: 4, Start: 70, End: 120},
	}
	want := []int64{100 - 50 - 30, 50 - 15 - 20, 15, 20, 0, 50}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestLaneRecordsNestingAndOverflow(t *testing.T) {
	var none *lane
	none.end(none.begin(spIsend, 1)) // the untraced run: a nil lane records nothing

	l := newLane("x", time.Now(), 4)
	root := l.begin(spRep, 0)
	seq := l.begin(spSeq, 7)
	l.end(l.begin(spIsend, 7))
	l.end(l.begin(spIrecv, 7)) // the ring is now full
	a := l.begin(spIsend, 7)   // overflows
	time.Sleep(time.Millisecond)
	l.end(a)
	l.end(seq)
	over := l.begin(spSeq, 8) // overflows, as does its child
	l.end(l.begin(spIsend, 8))
	time.Sleep(time.Millisecond)
	l.end(over)
	l.end(root)

	if len(l.spans) != 4 {
		t.Fatalf("%d spans recorded, want 4", len(l.spans))
	}
	if p := l.spans[2].Parent; p != 1 {
		t.Errorf("isend's parent = %d, want the sequence (1)", p)
	}
	if p := l.spans[1].Parent; p != 0 {
		t.Errorf("sequence's parent = %d, want the root (0)", p)
	}
	if l.spans[1].ID != 7 || l.spans[2].ID != 7 {
		t.Errorf("spans of one sequence must share its id")
	}
	tot := l.totals()
	if tot[spIsend].Count != 3 || tot[spSeq].Count != 2 {
		t.Errorf("counts with overflow: isend %d seq %d, want 3 and 2", tot[spIsend].Count, tot[spSeq].Count)
	}
	if l.over[spIsend].Count != 2 || l.over[spSeq].Count != 1 || l.over[spIsend].SumNs < int64(time.Millisecond) {
		t.Errorf("overflow tallies: %+v", l.over)
	}
	// Only the outermost unrecorded span counts against its parent: the
	// second sequence covers the root once, not once more for its child.
	if u := l.spans[0].unrecorded; u != l.over[spSeq].SumNs {
		t.Errorf("root's unrecorded cover = %d, want the overflowed sequence's %d", u, l.over[spSeq].SumNs)
	}
	if c := coverage(&tot); c < 0.9 || c > 1 {
		t.Errorf("coverage = %v, want nearly 1: unrecorded children still cover their parent", c)
	}
}

func TestTracerReusesLanesAndWrites(t *testing.T) {
	tr := newTracer()
	for rep := 0; rep < 2; rep++ {
		l := tr.lane("main")
		root := l.begin(spRep, uint32(rep))
		l.end(l.begin(spSweep, 3))
		l.end(root)
	}
	if len(tr.lanes) != 1 || len(tr.lanes[0].spans) != 2 {
		t.Fatalf("a tracer keeps the latest repetition only: %d lanes, %d spans", len(tr.lanes), len(tr.lanes[0].spans))
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	sum := tr.summary()
	if err := tr.write(path, "analyze_sweep", 5, &sum); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Schema   string
		Workload string
		Seed     uint64
		Names    []string
		Lanes    []struct {
			Lane  string
			Spans [][5]int64
		}
		ByName map[string]nameTotals `json:"by_name"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace file is not JSON: %v", err)
	}
	if doc.Schema != traceSchema || doc.Workload != "analyze_sweep" || doc.Seed != 5 || len(doc.Names) != int(numSpanNames) {
		t.Errorf("trace header: %+v", doc)
	}
	if len(doc.Lanes) != 1 || len(doc.Lanes[0].Spans) != 2 || doc.Lanes[0].Spans[1][2] != 0 {
		t.Errorf("trace lanes: %+v", doc.Lanes)
	}
	if doc.ByName["analyzer.sweep"].Count != 1 {
		t.Errorf("by_name: %+v", doc.ByName)
	}
}

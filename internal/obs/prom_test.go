package obs

import (
	"strings"
	"testing"
)

// TestWritePromCounters pins the counter rendering: one TYPE header per
// family, `_total` samples per labeled group summed across the group's
// sinks, zero-valued families omitted, and deterministic order.
func TestWritePromCounters(t *testing.T) {
	a1, a2, b := New(Options{}), New(Options{}), New(Options{})
	a1.CounterAdd(CtrMatched, 3)
	a2.CounterAdd(CtrMatched, 4)
	b.CounterAdd(CtrMatched, 10)
	b.CounterAdd(CtrUnexpected, 2)

	var sb strings.Builder
	err := WriteProm(&sb, "matchd", []LabeledSinks{
		{Labels: []Label{{"tenant", "alpha"}}, Sinks: []*Sink{a1, a2, nil}},
		{Labels: []Label{{"tenant", "beta"}}, Sinks: []*Sink{b}},
	})
	if err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	out := sb.String()

	wantLines := []string{
		"# TYPE matchd_matched counter",
		`matchd_matched_total{tenant="alpha"} 7`,
		`matchd_matched_total{tenant="beta"} 10`,
		"# TYPE matchd_unexpected counter",
		`matchd_unexpected_total{tenant="beta"} 2`,
	}
	for _, l := range wantLines {
		if !strings.Contains(out, l+"\n") {
			t.Errorf("output missing line %q\ngot:\n%s", l, out)
		}
	}
	// Alpha never recorded unexpected: no sample for it.
	if strings.Contains(out, `matchd_unexpected_total{tenant="alpha"}`) {
		t.Errorf("zero-valued sample emitted for alpha:\n%s", out)
	}
	// Families with no nonzero sample anywhere must be absent entirely.
	if strings.Contains(out, "matchd_posted") {
		t.Errorf("all-zero family matchd_posted emitted:\n%s", out)
	}
	// Determinism: two renders byte-identical.
	var sb2 strings.Builder
	if err := WriteProm(&sb2, "matchd", []LabeledSinks{
		{Labels: []Label{{"tenant", "alpha"}}, Sinks: []*Sink{a1, a2, nil}},
		{Labels: []Label{{"tenant", "beta"}}, Sinks: []*Sink{b}},
	}); err != nil {
		t.Fatalf("WriteProm (second render): %v", err)
	}
	if sb2.String() != out {
		t.Errorf("renders differ:\n%s\nvs\n%s", out, sb2.String())
	}
}

// TestWritePromHistogram pins the log2 → le bucket expansion: bucket i
// counts values with bits.Len64(v)==i, so its inclusive upper bound is
// 2^i-1; buckets must cumulate and close with +Inf == count.
func TestWritePromHistogram(t *testing.T) {
	s := New(Options{})
	s.Observe(HistDrainBatch, 0) // bucket 0 (le="0")
	s.Observe(HistDrainBatch, 1) // bucket 1 (le="1")
	s.Observe(HistDrainBatch, 2) // bucket 2 (le="3")
	s.Observe(HistDrainBatch, 3) // bucket 2
	s.Observe(HistDrainBatch, 7) // bucket 3 (le="7")

	var sb strings.Builder
	if err := WriteProm(&sb, "d", []LabeledSinks{{Sinks: []*Sink{s}}}); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	out := sb.String()
	wantLines := []string{
		"# TYPE d_drain_batch histogram",
		`d_drain_batch_bucket{le="0"} 1`,
		`d_drain_batch_bucket{le="1"} 2`,
		`d_drain_batch_bucket{le="3"} 4`,
		`d_drain_batch_bucket{le="7"} 5`,
		`d_drain_batch_bucket{le="+Inf"} 5`,
		"d_drain_batch_sum 13",
		"d_drain_batch_count 5",
	}
	for _, l := range wantLines {
		if !strings.Contains(out, l+"\n") {
			t.Errorf("output missing line %q\ngot:\n%s", l, out)
		}
	}
}

// TestWritePromLabelEscaping pins the exposition-format escapes for label
// values: backslash, double quote, and newline.
func TestWritePromLabelEscaping(t *testing.T) {
	s := New(Options{})
	s.CounterInc(CtrMatched)
	var sb strings.Builder
	err := WriteProm(&sb, "d", []LabeledSinks{
		{Labels: []Label{{"job", "a\\b\"c\nd"}}, Sinks: []*Sink{s}},
	})
	if err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	want := `d_matched_total{job="a\\b\"c\nd"} 1`
	if !strings.Contains(sb.String(), want+"\n") {
		t.Errorf("escaped sample missing: want %q in\n%s", want, sb.String())
	}
}

package trace_test

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/trace"
	"repro/internal/tracegen"
)

// FuzzDecodeBinary hardens the cache decoder against arbitrary bytes: it
// must never panic, a decoded trace never repeats a rank id, and an image
// that decodes re-encodes to one that decodes to the same trace.
func FuzzDecodeBinary(f *testing.F) {
	for _, name := range []string{"AMG", "MOCFE"} {
		app, _ := tracegen.ByName(name)
		var buf bytes.Buffer
		if err := trace.EncodeBinary(&buf, app.Generate(tracegen.Config{Scale: 1})); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("TRCBIN\x00\x01"))

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := trace.DecodeBinary(data)
		if err != nil {
			return
		}
		seen := make(map[int32]bool, len(tr.Ranks))
		for _, rt := range tr.Ranks {
			if seen[rt.Rank] {
				t.Fatalf("decoded trace repeats rank %d", rt.Rank)
			}
			seen[rt.Rank] = true
		}
		var buf bytes.Buffer
		if err := trace.EncodeBinary(&buf, tr); err != nil {
			t.Fatal(err)
		}
		again, err := trace.DecodeBinary(buf.Bytes())
		if err != nil {
			t.Fatalf("re-encoded image does not decode: %v", err)
		}
		if !sameTrace(tr, again) {
			t.Fatal("re-encoded image decodes to a different trace")
		}
	})
}

// sameTrace compares two traces field by field, walltimes by their bits:
// a decoded walltime may be any float64, NaN included.
func sameTrace(a, b *trace.Trace) bool {
	if a.App != b.App || len(a.Ranks) != len(b.Ranks) {
		return false
	}
	for i := range a.Ranks {
		ra, rb := &a.Ranks[i], &b.Ranks[i]
		if ra.Rank != rb.Rank || len(ra.Events) != len(rb.Events) {
			return false
		}
		for j := range ra.Events {
			ea, eb := ra.Events[j], rb.Events[j]
			if math.Float64bits(ea.Walltime) != math.Float64bits(eb.Walltime) {
				return false
			}
			ea.Walltime, eb.Walltime = 0, 0
			if ea != eb {
				return false
			}
		}
	}
	return true
}

package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func sampleTrace() *Trace {
	return &Trace{App: "fmt-test", Ranks: []RankTrace{
		{Rank: 0, Events: []Event{
			{Kind: OpRecv, Name: "MPI_Irecv", Peer: 1, Tag: 3, Comm: 0, Count: 8, Walltime: 0.5},
			{Kind: OpRecv, Name: "MPI_Irecv", Peer: AnySource, Tag: AnyTag, Comm: 1, Count: 4, Walltime: 0.6},
			{Kind: OpProgress, Name: "MPI_Waitall", Walltime: 0.9},
		}},
		{Rank: 1, Events: []Event{
			{Kind: OpSend, Name: "MPI_Isend", Peer: 0, Tag: 3, Comm: 0, Count: 8, Walltime: 0.7},
			{Kind: OpCollective, Name: "MPI_Allreduce", Walltime: 0.95},
		}},
	}}
}

// TestFormatsRoundTripEquivalently: every event WriteDUMPI emits,
// wildcards included, comes back through ParseDUMPI with its fields.
func TestFormatsRoundTripEquivalently(t *testing.T) {
	orig := sampleTrace()
	t.Run("dumpi", func(t *testing.T) {
		for ri := range orig.Ranks {
			var buf bytes.Buffer
			if err := WriteDUMPI(&buf, &orig.Ranks[ri]); err != nil {
				t.Fatal(err)
			}
			got, err := ParseDUMPI(&buf, orig.Ranks[ri].Rank)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Events) != len(orig.Ranks[ri].Events) {
				t.Fatalf("rank %d: %d events, want %d", ri, len(got.Events), len(orig.Ranks[ri].Events))
			}
			for i, e := range got.Events {
				o := orig.Ranks[ri].Events[i]
				if e.Kind != o.Kind || e.Name != o.Name {
					t.Fatalf("event %d: %+v != %+v", i, e, o)
				}
				if e.Kind == OpSend || e.Kind == OpRecv {
					if e.Peer != o.Peer || e.Tag != o.Tag || e.Comm != o.Comm || e.Count != o.Count {
						t.Fatalf("event %d fields: %+v != %+v", i, e, o)
					}
				}
			}
		}
	})
}

// TestWriteDirFormatAndAutodetect: a directory WriteDir fills loads back
// through LoadDir rank by rank; one with no DUMPI rank file does not load.
func TestWriteDirFormatAndAutodetect(t *testing.T) {
	orig := sampleTrace()
	dir := t.TempDir()
	if err := WriteDir(dir, orig); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "notes.md"), []byte("not a trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDir(dir, "fmt-test")
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRanks() != 2 || got.NumEvents() != orig.NumEvents() {
		t.Fatalf("load got %d ranks / %d events", got.NumRanks(), got.NumEvents())
	}
	for ri := range got.Ranks {
		if got.Ranks[ri].Rank != orig.Ranks[ri].Rank || len(got.Ranks[ri].Events) != len(orig.Ranks[ri].Events) {
			t.Fatalf("rank %d loaded as rank %d with %d events, want %d",
				orig.Ranks[ri].Rank, got.Ranks[ri].Rank, len(got.Ranks[ri].Events), len(orig.Ranks[ri].Events))
		}
	}
	if _, err := LoadDir(t.TempDir(), "x"); err == nil {
		t.Fatal("empty dir accepted")
	}
}

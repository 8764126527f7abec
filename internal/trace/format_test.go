package trace

import (
	"bytes"
	"strings"
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

func TestFormatsRoundTripEquivalently(t *testing.T) {
	orig := sampleTrace()
	for _, f := range formats {
		t.Run(f.Name(), func(t *testing.T) {
			for ri := range orig.Ranks {
				var buf bytes.Buffer
				if err := f.Write(&buf, &orig.Ranks[ri]); err != nil {
					t.Fatal(err)
				}
				got, err := f.Parse(&buf, orig.Ranks[ri].Rank)
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
}

func TestWriteDirFormatAndAutodetect(t *testing.T) {
	orig := sampleTrace()
	for _, fname := range []string{"dumpi", "jsonl"} {
		dir := t.TempDir()
		if err := WriteDirFormat(dir, orig, fname); err != nil {
			t.Fatalf("%s: %v", fname, err)
		}
		got, err := LoadDir(dir, "fmt-test")
		if err != nil {
			t.Fatalf("%s: %v", fname, err)
		}
		if got.NumRanks() != 2 || got.NumEvents() != orig.NumEvents() {
			t.Fatalf("%s: autodetected load got %d ranks / %d events",
				fname, got.NumRanks(), got.NumEvents())
		}
		for ri := range got.Ranks {
			if got.Ranks[ri].Rank != orig.Ranks[ri].Rank || len(got.Ranks[ri].Events) != len(orig.Ranks[ri].Events) {
				t.Fatalf("%s: rank %d loaded as rank %d with %d events, want %d",
					fname, orig.Ranks[ri].Rank, got.Ranks[ri].Rank, len(got.Ranks[ri].Events), len(orig.Ranks[ri].Events))
			}
		}
	}
	if err := WriteDirFormat(t.TempDir(), orig, "nope"); err == nil {
		t.Fatal("unknown format accepted")
	}
	if _, err := LoadDir(t.TempDir(), "x"); err == nil {
		t.Fatal("empty dir accepted")
	}
}

func TestJSONLRejectsGarbage(t *testing.T) {
	f := jsonlFormat{}
	if _, err := f.Parse(strings.NewReader("{not json\n"), 0); err == nil {
		t.Fatal("garbage line accepted")
	}
	if _, err := f.Parse(strings.NewReader(`{"t":1.0}`+"\n"), 0); err == nil {
		t.Fatal("missing op accepted")
	}
	// Blank lines are tolerated.
	rt, err := f.Parse(strings.NewReader("\n"+`{"op":"MPI_Wait","t":1}`+"\n\n"), 0)
	if err != nil || len(rt.Events) != 1 {
		t.Fatalf("blank-line handling: %v %d", err, len(rt.Events))
	}
}

func TestJSONLFileMatch(t *testing.T) {
	f := jsonlFormat{}
	if r, ok := f.MatchFile("jsonl-App-0012.jsonl"); !ok || r != 12 {
		t.Fatalf("match = %d %v", r, ok)
	}
	if _, ok := f.MatchFile("dumpi-App-0012.txt"); ok {
		t.Fatal("jsonl matched a dumpi file")
	}
}

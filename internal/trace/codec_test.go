package trace

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// codecTrace exercises every field class: wildcards (negative sentinels),
// empty rank streams, non-contiguous rank ids, repeated and one-off names.
func codecTrace() *Trace {
	return &Trace{App: "codec app", Ranks: []RankTrace{
		{Rank: 0, Events: []Event{
			{Kind: OpSend, Name: "MPI_Isend", Peer: 7, Tag: 3, Comm: 2, Count: 512, Walltime: 100.25},
			{Kind: OpRecv, Name: "MPI_Irecv", Peer: AnySource, Tag: AnyTag, Comm: 0, Count: 16, Walltime: 100.5},
			{Kind: OpProgress, Name: "MPI_Waitall", Walltime: 101},
		}},
		{Rank: 3, Events: nil},
		{Rank: 7, Events: []Event{
			{Kind: OpCollective, Name: "MPI_Allreduce", Count: 1, Walltime: 0},
			{Kind: OpOneSided, Name: "MPI_Put", Peer: 0, Walltime: 1e-9},
			{Kind: OpOther, Name: "MPI_Init", Walltime: -1.5},
			{Kind: OpSend, Name: "MPI_Isend", Peer: 0, Tag: 1 << 20, Comm: -3, Count: 0, Walltime: 1e12},
		}},
	}}
}

func TestBinaryCodecRoundTrip(t *testing.T) {
	orig := codecTrace()
	var buf bytes.Buffer
	if err := EncodeBinary(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBinary(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig, got) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", orig, got)
	}
}

func TestBinaryCodecEmptyTrace(t *testing.T) {
	orig := &Trace{App: ""}
	var buf bytes.Buffer
	if err := EncodeBinary(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBinary(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.App != "" || got.NumRanks() != 0 {
		t.Fatalf("empty trace decoded as %+v", got)
	}
}

func TestDecodeBinaryRejectsForeignInput(t *testing.T) {
	for _, data := range [][]byte{
		nil,
		[]byte("short"),
		[]byte("not a cache at all, definitely longer than the magic"),
		append([]byte{'T', 'R', 'C', 'B', 'I', 'N', 0, 99}, 0), // future version
	} {
		if _, err := DecodeBinary(data); !errors.Is(err, ErrNotBinaryCache) {
			t.Errorf("DecodeBinary(%q) err = %v, want ErrNotBinaryCache", data, err)
		}
	}
}

func TestDecodeBinaryTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeBinary(&buf, codecTrace()); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	// Every strict prefix beyond the magic must fail loudly, never panic
	// or silently succeed.
	for n := len(binMagic); n < len(whole); n++ {
		tr, err := DecodeBinary(whole[:n])
		if err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully: %+v", n, tr)
		}
	}
}

// TestDecodeBinaryRejectsRepeatedRank: an image with two blocks for one
// rank id is corrupt, whether the id is below the rank count, above it or
// negative. A trace that lists a rank twice has no one rank to analyze.
func TestDecodeBinaryRejectsRepeatedRank(t *testing.T) {
	for _, ids := range [][]int32{{1, 1}, {0, 7, 7}, {-2, 3, -2}} {
		tr := &Trace{App: "dup"}
		for _, id := range ids {
			tr.Ranks = append(tr.Ranks, RankTrace{Rank: id, Events: []Event{
				{Kind: OpRecv, Name: "MPI_Irecv", Peer: 0, Tag: id}}})
		}
		var buf bytes.Buffer
		if err := EncodeBinary(&buf, tr); err != nil {
			t.Fatal(err)
		}
		_, err := DecodeBinary(buf.Bytes())
		if err == nil || !strings.Contains(err.Error(), "corrupt") || errors.Is(err, ErrNotBinaryCache) {
			t.Errorf("ranks %v: err = %v, want a corrupt-cache error", ids, err)
		}
	}
}

// TestLeftoverGobFileIsMiss: a cache file left behind by a pre-codec
// version is not read; Load re-parses and writes the binary cache.
func TestLeftoverGobFileIsMiss(t *testing.T) {
	dir := t.TempDir()
	writeTraceDir(t, dir)
	if err := os.WriteFile(filepath.Join(dir, ".trace-cache.gob"), []byte("legacy"), 0o644); err != nil {
		t.Fatal(err)
	}
	if tr, ok, err := LoadCache(dir); err != nil || ok || tr != nil {
		t.Fatalf("leftover gob cache: tr=%v ok=%v err=%v", tr, ok, err)
	}
	if _, err := Load(dir, "test"); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := LoadCache(dir); err != nil || !ok {
		t.Fatalf("binary cache after re-parse: ok=%v err=%v", ok, err)
	}
}

func TestLoadCacheSurfacesStatErrors(t *testing.T) {
	// A plain file where a directory is expected makes os.Stat fail with
	// ENOTDIR — a real error, which must not be misread as "no cache"
	// (the old behaviour swallowed everything but success).
	dir := t.TempDir()
	file := filepath.Join(dir, "plain")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := LoadCache(filepath.Join(file, "sub")); err == nil || ok {
		t.Fatalf("stat error swallowed: ok=%v err=%v", ok, err)
	}
}

func TestLoadCacheUnknownVersionIsMiss(t *testing.T) {
	dir := t.TempDir()
	writeTraceDir(t, dir)
	future := append([]byte{'T', 'R', 'C', 'B', 'I', 'N', 0, 99}, []byte("payload")...)
	if err := os.WriteFile(cachePath(dir), future, 0o644); err != nil {
		t.Fatal(err)
	}
	tr, ok, err := LoadCache(dir)
	if err != nil || ok || tr != nil {
		t.Fatalf("future-version cache: tr=%v ok=%v err=%v", tr, ok, err)
	}
	// Load must recover by re-parsing and overwriting the cache.
	if _, err := Load(dir, "test"); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := LoadCache(dir); err != nil || !ok {
		t.Fatalf("cache not refreshed: ok=%v err=%v", ok, err)
	}
}

func TestCorruptBinaryCacheErrors(t *testing.T) {
	dir := t.TempDir()
	writeTraceDir(t, dir)
	tr, err := LoadDir(dir, "test")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if err := os.WriteFile(cachePath(dir), data[:len(data)-4], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := LoadCache(dir); err == nil || ok {
		t.Fatalf("truncated cache accepted: ok=%v err=%v", ok, err)
	}
}

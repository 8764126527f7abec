package analyzer

import (
	"bytes"
	"encoding/csv"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"
)

// readStatsCSV parses a file written by WriteCSV into its one value row,
// checking the header.
func readStatsCSV(t *testing.T, r io.Reader) []string {
	t.Helper()
	records, err := csv.NewReader(r).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 2 || !slices.Equal(records[0], csvHeader) || len(records[1]) != len(csvHeader) {
		t.Fatalf("malformed stats CSV: %q", records)
	}
	return records[1]
}

func TestCSVRoundTrip(t *testing.T) {
	tr := twoRankTrace([]int32{1, 2, 3})
	rep, err := Analyze(tr, Config{Bins: 32})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, rep); err != nil {
		t.Fatal(err)
	}
	row := readStatsCSV(t, &buf)
	if app, bins := row[0], row[2]; app != "mini" || bins != "32" {
		t.Fatalf("round trip meta: %q %s", app, bins)
	}
	avg, err := strconv.ParseFloat(row[7], 64)
	if err != nil {
		t.Fatal(err)
	}
	max, err := strconv.ParseUint(row[8], 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	if avg != rep.AvgDepth() || max != rep.MaxDepth() {
		t.Fatalf("round trip depth: %v/%v vs %v/%v", avg, max, rep.AvgDepth(), rep.MaxDepth())
	}
}

func TestWriteTreeArtifactLayout(t *testing.T) {
	tr := twoRankTrace([]int32{1, 2})
	reps, err := Sweep(tr, []int{1, 32}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	if err := WriteTree(root, reps); err != nil {
		t.Fatal(err)
	}
	for _, bins := range []string{"1", "32"} {
		path := filepath.Join(root, "mini", bins, "stats.csv")
		f, err := os.Open(path)
		if err != nil {
			t.Fatalf("missing artifact file: %v", err)
		}
		row := readStatsCSV(t, f)
		f.Close()
		if row[0] != "mini" || row[2] != bins {
			t.Fatalf("artifact file %s holds app %q, bins %s", path, row[0], row[2])
		}
	}
}

package trace

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"sync"
)

// Format is a per-rank trace file format. The paper's analyzer reads DUMPI
// text traces but notes that "the design of the application allows to
// easily add other formats" (§V-A); this interface is that seam. LoadDir
// picks one of the formats by inspecting the directory's file names.
type Format interface {
	// Name identifies the format ("dumpi", "jsonl", …).
	Name() string
	// MatchFile reports whether a file belongs to this format and, if so,
	// which rank it records.
	MatchFile(name string) (rank int32, ok bool)
	// Parse reads one rank's stream.
	Parse(r io.Reader, rank int32) (*RankTrace, error)
	// Write emits one rank's stream, round-trippable through Parse.
	Write(w io.Writer, rt *RankTrace) error
}

// formats are the trace formats LoadDir detects and WriteDirFormat writes.
var formats = []Format{dumpiFormat{}, jsonlFormat{}}

// detectFormat finds the format owning the most files in dir.
func detectFormat(entries []os.DirEntry) Format {
	best := Format(nil)
	bestN := 0
	for _, f := range formats {
		n := 0
		for _, e := range entries {
			if e.IsDir() {
				continue
			}
			if _, ok := f.MatchFile(e.Name()); ok {
				n++
			}
		}
		if n > bestN {
			best, bestN = f, n
		}
	}
	return best
}

// LoadDir parses every per-rank trace file in dir with the auto-detected
// format, in parallel per rank (§V-A). Two files that name the same rank
// ("a-1.txt" and "b-0001.txt") are an error naming both.
func LoadDir(dir, app string) (*Trace, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	f := detectFormat(entries)
	if f == nil {
		return nil, fmt.Errorf("trace: no files of any known format in %s", dir)
	}
	type rankFile struct {
		rank int32
		path string
	}
	var files []rankFile
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if rank, ok := f.MatchFile(e.Name()); ok {
			files = append(files, rankFile{rank: rank, path: filepath.Join(dir, e.Name())})
		}
	}
	sort.Slice(files, func(i, j int) bool { return files[i].rank < files[j].rank })
	for i := 1; i < len(files); i++ {
		if files[i].rank == files[i-1].rank {
			return nil, fmt.Errorf("trace: %s and %s both record rank %d",
				files[i-1].path, files[i].path, files[i].rank)
		}
	}

	t := &Trace{App: app, Ranks: make([]RankTrace, len(files))}
	errs := make([]error, len(files))
	var wg sync.WaitGroup
	for i, rf := range files {
		wg.Add(1)
		go func(i int, rf rankFile) {
			defer wg.Done()
			fh, err := os.Open(rf.path)
			if err != nil {
				errs[i] = err
				return
			}
			defer fh.Close()
			rt, err := f.Parse(fh, rf.rank)
			if err != nil {
				errs[i] = err
				return
			}
			t.Ranks[i] = *rt
		}(i, rf)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return t, nil
}

// WriteDirFormat writes every rank of t into dir using the named format.
func WriteDirFormat(dir string, t *Trace, formatName string) error {
	i := slices.IndexFunc(formats, func(f Format) bool { return f.Name() == formatName })
	if i < 0 {
		return fmt.Errorf("trace: unknown format %q", formatName)
	}
	f := formats[i]
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i := range t.Ranks {
		rt := &t.Ranks[i]
		name := fmt.Sprintf("%s-%s-%04d%s", f.Name(), sanitize(t.App), rt.Rank, formatExt(f))
		fh, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if err := f.Write(fh, rt); err != nil {
			fh.Close()
			return err
		}
		if err := fh.Close(); err != nil {
			return err
		}
	}
	return nil
}

func formatExt(f Format) string {
	switch f.Name() {
	case "jsonl":
		return ".jsonl"
	default:
		return ".txt"
	}
}

// dumpiFormat adapts the existing DUMPI reader/writer to the Format seam.
type dumpiFormat struct{}

func (dumpiFormat) Name() string { return "dumpi" }

func (dumpiFormat) MatchFile(name string) (int32, bool) {
	m := rankFileRe.FindStringSubmatch(name)
	if m == nil {
		return 0, false
	}
	r, err := strconv.Atoi(m[1])
	if err != nil {
		return 0, false
	}
	return int32(r), true
}

func (dumpiFormat) Parse(r io.Reader, rank int32) (*RankTrace, error) {
	return ParseDUMPI(r, rank)
}

func (dumpiFormat) Write(w io.Writer, rt *RankTrace) error {
	return WriteDUMPI(w, rt)
}

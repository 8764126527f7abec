package trace

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// The DUMPI ASCII format (the output of dumpi2ascii, the SST DUMPI trace
// library's converter) records each call as an enter/return pair with the
// call arguments as indented key=value lines:
//
//	MPI_Irecv entering at walltime 8207.0103, cputime 0.0486 seconds in thread 0.
//	int count=512
//	datatype datatype=2 (MPI_CHAR)
//	int source=1
//	int tag=100
//	comm comm=2 (MPI_COMM_WORLD)
//	request request=[12]
//	MPI_Irecv returning at walltime 8207.0104, cputime 0.0487 seconds in thread 0.
//
// The parser extracts the fields matching needs (peer, tag, comm, count,
// walltime) and classifies every call name; symbolic wildcard values
// (MPI_ANY_SOURCE, MPI_ANY_TAG) are accepted alongside numeric ones.

var (
	enterRe = regexp.MustCompile(`^(MPI_\w+) entering at walltime ([0-9.eE+-]+)`)
	fieldRe = regexp.MustCompile(`^\s*\w+ (\w+)=(\[?[-\w.]+\]?)`)
)

// ParseDUMPI reads one rank's DUMPI ASCII stream.
func ParseDUMPI(r io.Reader, rank int32) (*RankTrace, error) {
	rt := &RankTrace{Rank: rank}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)

	var cur *Event
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if m := enterRe.FindStringSubmatch(line); m != nil {
			wt, err := strconv.ParseFloat(m[2], 64)
			if err != nil {
				return nil, fmt.Errorf("trace: line %d: bad walltime %q", lineNo, m[2])
			}
			kind := Classify(m[1])
			rt.Events = append(rt.Events, Event{
				Kind: kind, Name: m[1], Walltime: wt,
				Peer: -1, Tag: 0, Comm: 0,
			})
			cur = &rt.Events[len(rt.Events)-1]
			if kind != OpSend && kind != OpRecv {
				cur = nil // arguments only matter for p2p
			}
			continue
		}
		if strings.Contains(line, " returning at walltime ") {
			cur = nil
			continue
		}
		if cur == nil {
			continue
		}
		if m := fieldRe.FindStringSubmatch(line); m != nil {
			key, raw := m[1], strings.Trim(m[2], "[]")
			switch key {
			case "dest", "source":
				cur.Peer = parseRankValue(raw)
			case "tag":
				cur.Tag = parseTagValue(raw)
			case "comm":
				if v, err := strconv.ParseInt(raw, 10, 32); err == nil {
					cur.Comm = int32(v)
				}
			case "count":
				if v, err := strconv.ParseInt(raw, 10, 32); err == nil {
					cur.Count = int32(v)
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: rank %d: %w", rank, err)
	}
	return rt, nil
}

func parseRankValue(raw string) int32 {
	if raw == "MPI_ANY_SOURCE" {
		return AnySource
	}
	if v, err := strconv.ParseInt(raw, 10, 32); err == nil {
		return int32(v)
	}
	return AnySource
}

func parseTagValue(raw string) int32 {
	if raw == "MPI_ANY_TAG" {
		return AnyTag
	}
	if v, err := strconv.ParseInt(raw, 10, 32); err == nil {
		return int32(v)
	}
	return AnyTag
}

// rankFileRe matches DUMPI per-rank trace files ("…-0007.txt").
var rankFileRe = regexp.MustCompile(`-(\d+)\.txt$`)

// LoadDir parses every DUMPI per-rank trace file in dir, in parallel per
// rank (§V-A). Two files that name the same rank ("a-1.txt" and
// "b-0001.txt") are an error naming both.
func LoadDir(dir, app string) (*Trace, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
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
		m := rankFileRe.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		rank, err := strconv.ParseInt(m[1], 10, 32)
		if err != nil {
			continue
		}
		files = append(files, rankFile{rank: int32(rank), path: filepath.Join(dir, e.Name())})
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("trace: no DUMPI rank files (…-<rank>.txt) in %s", dir)
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
			rt, err := ParseDUMPI(fh, rf.rank)
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

// WriteDir writes every rank of t into dir as a DUMPI file
// ("dumpi-<app>-<rank>.txt"), which LoadDir reads back.
func WriteDir(dir string, t *Trace) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i := range t.Ranks {
		rt := &t.Ranks[i]
		fh, err := os.Create(filepath.Join(dir, fmt.Sprintf("dumpi-%s-%04d.txt", SanitizeName(t.App), rt.Rank)))
		if err != nil {
			return err
		}
		if err := WriteDUMPI(fh, rt); err != nil {
			fh.Close()
			return err
		}
		if err := fh.Close(); err != nil {
			return err
		}
	}
	return nil
}

// WriteDUMPI emits a rank trace in DUMPI ASCII form, round-trippable
// through ParseDUMPI. Synthetic traces are written this way so the analyzer
// exercises the same parsing path real NERSC traces would.
func WriteDUMPI(w io.Writer, rt *RankTrace) error {
	bw := bufio.NewWriter(w)
	for _, e := range rt.Events {
		fmt.Fprintf(bw, "%s entering at walltime %.7f, cputime 0.0000000 seconds in thread 0.\n",
			e.Name, e.Walltime)
		switch e.Kind {
		case OpSend:
			fmt.Fprintf(bw, "int count=%d\n", e.Count)
			fmt.Fprintf(bw, "datatype datatype=2 (MPI_CHAR)\n")
			fmt.Fprintf(bw, "int dest=%d\n", e.Peer)
			fmt.Fprintf(bw, "int tag=%d\n", e.Tag)
			fmt.Fprintf(bw, "comm comm=%d (user)\n", e.Comm)
			fmt.Fprintf(bw, "request request=[0]\n")
		case OpRecv:
			fmt.Fprintf(bw, "int count=%d\n", e.Count)
			fmt.Fprintf(bw, "datatype datatype=2 (MPI_CHAR)\n")
			if e.Peer == AnySource {
				fmt.Fprintf(bw, "int source=MPI_ANY_SOURCE\n")
			} else {
				fmt.Fprintf(bw, "int source=%d\n", e.Peer)
			}
			if e.Tag == AnyTag {
				fmt.Fprintf(bw, "int tag=MPI_ANY_TAG\n")
			} else {
				fmt.Fprintf(bw, "int tag=%d\n", e.Tag)
			}
			fmt.Fprintf(bw, "comm comm=%d (user)\n", e.Comm)
			fmt.Fprintf(bw, "request request=[0]\n")
		}
		fmt.Fprintf(bw, "%s returning at walltime %.7f, cputime 0.0000000 seconds in thread 0.\n",
			e.Name, e.Walltime+1e-7)
	}
	return bw.Flush()
}

// SanitizeName maps s to a file-name component: ASCII letters and digits
// stay, every other rune becomes '_'. Trace files, the per-application
// directories tracegen writes and the analyzer's CSV tree all name an
// application through it.
func SanitizeName(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			return r
		default:
			return '_'
		}
	}, s)
}

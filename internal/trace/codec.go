package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
)

// Binary cache codec, version 1. The §V-A cache exists to make the re-run
// path fast ("parsing ... is the most time-consuming step"); gob's
// reflection-driven decode left most of that win on the table. The format
// here is a length-prefixed, varint-packed layout:
//
//	magic    8 bytes  "TRCBIN" + 0x00 + version
//	app      uvarint length + bytes
//	names    uvarint count, then per name: uvarint length + bytes
//	ranks    uvarint count, then per rank:
//	  rank       varint (zigzag)
//	  numEvents  uvarint
//	  blockLen   uvarint — byte length of the event block that follows
//	  block      per event: kind byte, name index uvarint, then
//	             peer/tag/comm/count varints and 8-byte LE float64 walltime
//
// Event names (MPI function names) repeat massively, so they are interned
// in one table. Rank blocks carry their byte length so a loader can slice
// the file into independent blocks and decode them in parallel, mirroring
// the per-destination-rank sharding of the analyzer. Bumping the version
// byte invalidates old caches cleanly: a reader seeing an unknown magic or
// version reports ErrNotBinaryCache and the caller re-parses.

// binMagic identifies version 1 of the binary cache format.
var binMagic = [8]byte{'T', 'R', 'C', 'B', 'I', 'N', 0, 1}

// ErrNotBinaryCache reports that the input does not start with a known
// binary-cache magic — it is some other file (e.g. a legacy gob cache) or
// a future version, and should be treated as a cache miss, not corruption.
var ErrNotBinaryCache = errors.New("trace: not a binary cache")

// EncodeBinary writes t in the binary cache format. It makes one pass over
// the events: the rank blocks are encoded first, interning names as they
// come, and the name table that precedes them is written once they are
// done. A run of events with one name (a halo's receives, then its sends)
// costs one string compare each, and only a change of name looks in the
// table.
func EncodeBinary(w io.Writer, t *Trace) error {
	names := make([]string, 0, 32)
	nameIdx := make(map[string]uint64, 32)
	var cur uint64 // index of names[cur], the name of the previous event

	body := make([]byte, 0, 16*t.NumEvents()+16*len(t.Ranks))
	body = binary.AppendUvarint(body, uint64(len(t.Ranks)))
	var block []byte
	for ri := range t.Ranks {
		rt := &t.Ranks[ri]
		block = block[:0]
		for _, e := range rt.Events {
			if len(names) == 0 || e.Name != names[cur] {
				i, ok := nameIdx[e.Name]
				if !ok {
					i = uint64(len(names))
					nameIdx[e.Name] = i
					names = append(names, e.Name)
				}
				cur = i
			}
			block = append(block, byte(e.Kind))
			block = binary.AppendUvarint(block, cur)
			block = binary.AppendVarint(block, int64(e.Peer))
			block = binary.AppendVarint(block, int64(e.Tag))
			block = binary.AppendVarint(block, int64(e.Comm))
			block = binary.AppendVarint(block, int64(e.Count))
			block = binary.LittleEndian.AppendUint64(block, math.Float64bits(e.Walltime))
		}
		body = binary.AppendVarint(body, int64(rt.Rank))
		body = binary.AppendUvarint(body, uint64(len(rt.Events)))
		body = binary.AppendUvarint(body, uint64(len(block)))
		body = append(body, block...)
	}

	head := make([]byte, 0, 64)
	head = append(head, binMagic[:]...)
	head = appendLenString(head, t.App)
	head = binary.AppendUvarint(head, uint64(len(names)))
	for _, n := range names {
		head = appendLenString(head, n)
	}
	if _, err := w.Write(head); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

func appendLenString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// byteReader walks an in-memory buffer with truncation checking.
type byteReader struct {
	data []byte
	off  int
}

func (r *byteReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("trace: binary cache truncated at offset %d", r.off)
	}
	r.off += n
	return v, nil
}

func (r *byteReader) varint() (int64, error) {
	v, n := binary.Varint(r.data[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("trace: binary cache truncated at offset %d", r.off)
	}
	r.off += n
	return v, nil
}

func (r *byteReader) bytes(n uint64) ([]byte, error) {
	if n > uint64(len(r.data)-r.off) {
		return nil, fmt.Errorf("trace: binary cache truncated at offset %d (need %d bytes)", r.off, n)
	}
	b := r.data[r.off : r.off+int(n)]
	r.off += int(n)
	return b, nil
}

func (r *byteReader) lenString() (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	b, err := r.bytes(n)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// DecodeBinary parses a binary cache image. Rank blocks are decoded in
// parallel on a GOMAXPROCS-wide pool. Inputs that do not carry the v1
// magic yield ErrNotBinaryCache.
func DecodeBinary(data []byte) (*Trace, error) {
	if len(data) < len(binMagic) || string(data[:len(binMagic)]) != string(binMagic[:]) {
		return nil, ErrNotBinaryCache
	}
	r := &byteReader{data: data, off: len(binMagic)}

	t := new(Trace)
	var err error
	if t.App, err = r.lenString(); err != nil {
		return nil, err
	}
	nNames, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if nNames > uint64(len(data)) {
		return nil, fmt.Errorf("trace: binary cache corrupt: %d names", nNames)
	}
	names := make([]string, nNames)
	for i := range names {
		if names[i], err = r.lenString(); err != nil {
			return nil, err
		}
	}

	nRanks, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if nRanks > uint64(len(data)) {
		return nil, fmt.Errorf("trace: binary cache corrupt: %d ranks", nRanks)
	}
	t.Ranks = make([]RankTrace, nRanks)
	type blockRef struct {
		events uint64
		data   []byte
	}
	blocks := make([]blockRef, nRanks)
	seen := make(map[int32]bool, nRanks)
	for i := range blocks {
		v, err := r.varint()
		if err != nil {
			return nil, err
		}
		rank := int32(v)
		if seen[rank] {
			return nil, fmt.Errorf("trace: binary cache corrupt: rank %d has two blocks", rank)
		}
		seen[rank] = true
		nEvents, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		blockLen, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		block, err := r.bytes(blockLen)
		if err != nil {
			return nil, err
		}
		t.Ranks[i].Rank = rank
		blocks[i] = blockRef{events: nEvents, data: block}
	}

	errs := make([]error, nRanks)
	runDecodePool(int(nRanks), func(i int) {
		t.Ranks[i].Events, errs[i] = decodeEventBlock(blocks[i].data, blocks[i].events, names)
	})
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}
	return t, nil
}

// decodeEventBlock parses one rank's event block.
func decodeEventBlock(block []byte, nEvents uint64, names []string) ([]Event, error) {
	if nEvents == 0 {
		return nil, nil
	}
	if nEvents > uint64(len(block)) {
		return nil, fmt.Errorf("trace: binary cache corrupt: %d events in %d-byte block", nEvents, len(block))
	}
	r := &byteReader{data: block}
	events := make([]Event, nEvents)
	for i := range events {
		e := &events[i]
		kind, err := r.bytes(1)
		if err != nil {
			return nil, err
		}
		e.Kind = OpKind(kind[0])
		nameIdx, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if nameIdx >= uint64(len(names)) {
			return nil, fmt.Errorf("trace: binary cache corrupt: name index %d of %d", nameIdx, len(names))
		}
		e.Name = names[nameIdx]
		fields := [4]*int32{&e.Peer, &e.Tag, &e.Comm, &e.Count}
		for _, f := range fields {
			v, err := r.varint()
			if err != nil {
				return nil, err
			}
			*f = int32(v)
		}
		wt, err := r.bytes(8)
		if err != nil {
			return nil, err
		}
		e.Walltime = math.Float64frombits(binary.LittleEndian.Uint64(wt))
	}
	return events, nil
}

// runDecodePool runs n independent decode tasks on up to GOMAXPROCS
// goroutines.
func runDecodePool(n int, task func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			task(i)
		}
		return
	}
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				task(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
}

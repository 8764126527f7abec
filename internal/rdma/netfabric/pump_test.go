package netfabric

import (
	"encoding/binary"
	"testing"

	"repro/internal/rdma"
)

// frameLoop is an endless in-memory stream: one encoded frame, repeated.
// Reads are filled to the brim, so frames straddle the reader's refills.
type frameLoop struct {
	frame []byte
	off   int
}

func (s *frameLoop) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		c := copy(p[n:], s.frame[s.off:])
		n += c
		s.off = (s.off + c) % len(s.frame)
	}
	return n, nil
}

// TestPumpDataPathAllocs guards the arrival contract every wire inherits
// from the pump: a data frame goes from the stream's buffer into the
// posted bounce buffer and onto the CQ without a heap allocation.
func TestPumpDataPathAllocs(t *testing.T) {
	tr := newTransport(Config{Rank: 0, Ranks: 2})
	tr.rq, tr.cq = rdma.NewRecvQueue(1), rdma.NewCQ()
	payload := make([]byte, 96)
	for i := range payload {
		payload[i] = byte(i)
	}
	fr := newFrameReader(&frameLoop{frame: appendFrame(nil, frData, 1, payload)})
	bounce := make([]byte, 128)
	var next uint64
	step := func() {
		tr.rq.Post(bounce, 7)
		h, err := tr.arrive(nil, fr)
		if err != nil || h.kind != frData || h.src != 1 || h.payloadLen != len(payload) {
			t.Fatalf("arrive: header %+v, err %v", h, err)
		}
		c, ok := tr.cq.Poll(next)
		if !ok || c.Err != nil || c.WRID != 7 || c.Bytes != len(payload) || &c.Data[0] != &bounce[0] || c.Data[95] != 95 {
			t.Fatalf("completion %d: %+v (ok=%v)", next, c, ok)
		}
		next++
		tr.cq.Trim(next)
	}
	step() // the CQ's backing array
	if allocs := testing.AllocsPerRun(2000, step); allocs != 0 {
		t.Fatalf("pump data path: %v allocs per frame, want 0", allocs)
	}
}

// InjectStray is a hook for the black-box tests: it feeds the pump, once
// per wire of tr that runs it (the loopback lands its payloads itself), as
// if that wire had received them, the frames a stray or
// forged sender could produce in src's name — a READ request for n bytes of
// rkey, a READ response, and, when src is tr's own rank (which no wire ever
// carries), a data frame.
func InjectStray(tr rdma.Transport, src int, rkey uint64, n int) error {
	t := tr.(*transport)
	const reqID = 1 << 40 // no live read has it
	resp := append(binary.AppendUvarint(nil, reqID), readOK)
	frames := [][]byte{
		appendFrame(nil, frReadReq, src, appendReadReq(nil, reqID, rkey, 0, n)),
		appendFrame(nil, frReadResp, src, append(resp, make([]byte, n)...)),
	}
	if src == t.rank {
		frames = append(frames, appendFrame(nil, frData, src, make([]byte, n)))
	}
	var fr frameReader
	for _, w := range t.wires {
		if _, ok := w.(*loopWire); ok {
			continue
		}
		for _, f := range frames {
			fr.load(f)
			if _, err := t.arrive(w, &fr); err != nil {
				return err
			}
		}
	}
	return nil
}

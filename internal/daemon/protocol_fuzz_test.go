package daemon

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dpa"
)

// FuzzDecodeRequest pins the control decoder's contract against hostile
// input: any byte string either decodes to a fully validated request or
// returns an error — never a panic — and every accepted submit spec obeys
// the published bounds, so nothing downstream (admission math, world
// construction) sees unvalidated numbers.
func FuzzDecodeRequest(f *testing.F) {
	seeds := []string{
		`{"op":"ping"}`,
		`{"op":"list"}`,
		`{"op":"status","id":"job-1"}`,
		`{"op":"cancel","id":"job-1"}`,
		`{"op":"wait","id":"job-1"}`,
		`{"op":"wait","id":"job-1","timeout_ms":250}`,
		`{"op":"wait","id":"job-1","timeout_ms":-1}`,
		`{"op":"wait","id":"job-1","timeout_ms":9223372036854775807}`,
		`{"op":"wait","timeout_ms":250}`,
		`{"op":"submit","job":{"tenant":"alpha"}}`,
		`{"op":"submit","job":{"tenant":"alpha","engine":"offload","transport":"shm","ranks":4,"k":8,"reps":2,"inflight":8}}`,
		`{"op":"submit","job":{"tenant":"alpha","workload":"replay","app":"AMG","scale":5}}`,
		// Truncated JSON.
		`{"op":"submit","job":{"tenant":"al`,
		`{"op":`,
		``,
		// Trailing garbage after the request object.
		`{"op":"ping"} {"op":"ping"}`,
		`{"op":"ping"}]`,
		// Hostile budgets: negative, oversized, overflowing.
		`{"op":"submit","job":{"tenant":"a","ranks":-1}}`,
		`{"op":"submit","job":{"tenant":"a","ranks":1000000}}`,
		`{"op":"submit","job":{"tenant":"a","threads":99999}}`,
		`{"op":"submit","job":{"tenant":"a","bins":3}}`,
		`{"op":"submit","job":{"tenant":"a","max_receives":1099511627776}}`,
		`{"op":"submit","job":{"tenant":"a","k":-5,"reps":-5}}`,
		// Oversize and control-character names.
		`{"op":"submit","job":{"tenant":"` + strings.Repeat("x", 300) + `"}}`,
		"{\"op\":\"submit\",\"job\":{\"tenant\":\"evil\u0000name\"}}",
		`{"op":"status","id":"` + strings.Repeat("y", 200) + `"}`,
		// Wrong shapes.
		`{"op":"submit"}`,
		`{"op":"reboot"}`,
		`[1,2,3]`,
		`"just a string"`,
		`{"op":"submit","job":{"tenant":"a","engine":"gpu"}}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		req, err := DecodeRequest(line)
		if err != nil {
			if req != nil {
				t.Fatalf("error %v with non-nil request", err)
			}
			return
		}
		if !validOps[req.Op] {
			t.Fatalf("accepted unknown op %q", req.Op)
		}
		switch req.Op {
		case OpSubmit:
			s := req.Job
			if s == nil {
				t.Fatalf("accepted submit without a job")
			}
			// Every accepted spec must already satisfy its own bounds...
			if err := s.Validate(); err != nil {
				t.Fatalf("accepted spec fails its own Validate: %v", err)
			}
			// ...and normalizing must land inside them, not merely at zero.
			s.Normalize()
			switch {
			case s.Ranks < 1 || s.Ranks > MaxRanks:
				t.Fatalf("normalized ranks %d out of bounds", s.Ranks)
			case s.K < 1 || s.K > MaxK:
				t.Fatalf("normalized k %d out of bounds", s.K)
			case s.Reps < 1 || s.Reps > MaxReps:
				t.Fatalf("normalized reps %d out of bounds", s.Reps)
			case s.Threads < 1 || s.Threads > dpa.MaxThreads:
				t.Fatalf("normalized threads %d out of bounds", s.Threads)
			case s.InFlight < 1 || s.InFlight > core.MaxInFlightBlocks:
				t.Fatalf("normalized inflight %d out of bounds", s.InFlight)
			case len(s.Tenant) > MaxNameLen || len(s.ID) > MaxNameLen:
				t.Fatalf("normalized names exceed MaxNameLen")
			}
			// The admission charge must be computable without overflow
			// (bounded inputs ⇒ bounded product).
			if fp := specFootprint(s); fp < 0 {
				t.Fatalf("footprint overflowed: %d", fp)
			}
			if th := specThreads(s); th < 0 || th > MaxRanks*dpa.MaxThreads {
				t.Fatalf("thread charge %d out of bounds", th)
			}
		case OpStatus, OpCancel, OpWait:
			if req.ID == "" || len(req.ID) > MaxNameLen {
				t.Fatalf("accepted bad id %q", req.ID)
			}
			if req.Op == OpWait && (req.TimeoutMS < 0 || req.TimeoutMS > MaxWaitMillis) {
				t.Fatalf("accepted wait timeout %d ms", req.TimeoutMS)
			}
		}
		// An accepted request must survive a marshal round-trip (the
		// server echoes specs back through JobStatus JSON).
		if _, err := json.Marshal(req); err != nil {
			t.Fatalf("accepted request does not re-marshal: %v", err)
		}
	})
}

// TestDecodeRequestDuplicateJobIDs pins the duplicate-ID path end to end:
// the decoder accepts both lines (IDs are daemon state, not syntax), and
// the daemon answers the second submit with the typed duplicate code.
func TestDecodeRequestDuplicateJobIDs(t *testing.T) {
	line := []byte(`{"op":"submit","job":{"id":"dup","tenant":"alpha","k":2,"reps":1}}`)
	if _, err := DecodeRequest(line); err != nil {
		t.Fatalf("DecodeRequest: %v", err)
	}
	d := New(Config{Clock: newFakeClock()})
	resp := d.handle(line, nil)
	if !resp.OK {
		t.Fatalf("first submit rejected: %s %s", resp.Code, resp.Error)
	}
	resp = d.handle(line, nil)
	if resp.OK || resp.Code != CodeDuplicate {
		t.Fatalf("duplicate submit: ok=%v code=%s, want %s", resp.OK, resp.Code, CodeDuplicate)
	}
	waitAllTerminal(t, d)
}

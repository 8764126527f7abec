package mpi

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/dpa"
)

func infoWorld(t *testing.T, info map[int32]CommInfo, mutate func(*Options)) *World {
	t.Helper()
	opts := Options{
		Engine: EngineOffload,
		Matcher: core.Config{
			Bins: 64, MaxReceives: 256, BlockSize: 8,
			EarlyBookingCheck: true,
		},
		CommInfo: info,
	}
	if mutate != nil {
		mutate(&opts)
	}
	w, err := NewWorld(2, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w
}

func TestCommInfoHintsPropagate(t *testing.T) {
	w := infoWorld(t, map[int32]CommInfo{
		4: {Hints: core.Hints{NoAnySource: true, NoAnyTag: true}},
	}, nil)
	h := w.Proc(1).Matcher().CommHints(4)
	if !h.NoAnySource || !h.NoAnyTag {
		t.Fatalf("hints not propagated: %+v", h)
	}
	// A wildcard receive on the asserted communicator is erroneous.
	if _, err := w.Proc(1).Comm(4).Irecv(AnySource, 1, make([]byte, 4)); !errors.Is(err, core.ErrHintViolation) {
		t.Fatalf("hint violation not surfaced: %v", err)
	}
	// Fully specified traffic on the hinted communicator works.
	if err := w.Proc(0).Comm(4).Send(1, 1, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if st, err := w.Proc(1).Comm(4).Recv(0, 1, buf); err != nil || st.Count != 2 {
		t.Fatalf("hinted comm traffic failed: %v %+v", err, st)
	}
}

func TestCommInfoNoOffloadFallback(t *testing.T) {
	w := infoWorld(t, map[int32]CommInfo{
		7: {NoOffload: true},
	}, nil)
	fb := w.Proc(1).FallbackComms()
	if len(fb) != 1 || fb[0] != 7 {
		t.Fatalf("fallback comms = %v, want [7]", fb)
	}

	// Traffic on the fallback communicator must flow (software matched)…
	if err := w.Proc(0).Comm(7).Send(1, 3, []byte("sw")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	st, err := w.Proc(1).Comm(7).Recv(0, 3, buf)
	if err != nil || string(buf[:st.Count]) != "sw" {
		t.Fatalf("fallback recv: %v %q", err, buf[:st.Count])
	}
	// …without touching the offloaded matcher.
	if got := w.Proc(1).Matcher().Stats().Messages; got != 0 {
		t.Fatalf("offloaded matcher saw %d messages for a fallback comm", got)
	}

	// The default communicator still goes through the DPA.
	if err := w.Proc(0).World().Send(1, 3, []byte("hw")); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Proc(1).World().Recv(0, 3, buf); err != nil {
		t.Fatal(err)
	}
	if got := w.Proc(1).Matcher().Stats().Messages; got == 0 {
		t.Fatal("offloaded matcher idle for the default comm")
	}
}

func TestCommInfoFallbackUnexpected(t *testing.T) {
	// Unexpected handling on the software path: send first, post later.
	w := infoWorld(t, map[int32]CommInfo{9: {NoOffload: true}}, nil)
	if err := w.Proc(0).Comm(9).Send(1, 5, []byte("early")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	st, err := w.Proc(1).Comm(9).Recv(0, 5, buf)
	if err != nil || string(buf[:st.Count]) != "early" {
		t.Fatalf("fallback unexpected path: %v %q", err, buf[:st.Count])
	}
}

func TestCommInfoArenaExhaustionFallsBack(t *testing.T) {
	// Declare more communicators than DPA memory can host: the overflow
	// must fall back rather than fail.
	info := map[int32]CommInfo{}
	for id := int32(1); id <= 8; id++ {
		info[id] = CommInfo{}
	}
	w := infoWorld(t, info, func(o *Options) {
		// Base tables ≈ 64 bins ×3×20B + 256×64B ≈ 20 KiB. Room for the
		// base set plus roughly two declared comms.
		o.DPA = dpa.Config{Threads: 8, MemoryBytes: 64 * 1024}
	})
	fb := w.Proc(0).FallbackComms()
	if len(fb) == 0 {
		t.Fatal("no communicator fell back despite exhausted DPA memory")
	}
	if len(fb) == 8 {
		t.Fatal("every communicator fell back; expected some to fit")
	}
	// Fallback comms still deliver.
	id := fb[0]
	if err := w.Proc(0).Comm(id).Send(1, 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2)
	if _, err := w.Proc(1).Comm(id).Recv(0, 1, buf); err != nil {
		t.Fatal(err)
	}
}

func TestAllowOvertakingEndToEnd(t *testing.T) {
	// allow_overtaking: messages still all arrive, pairing unconstrained.
	w := infoWorld(t, map[int32]CommInfo{
		2: {Hints: core.Hints{AllowOvertaking: true}},
	}, nil)
	c0, c1 := w.Proc(0).Comm(2), w.Proc(1).Comm(2)
	const n = 24
	go func() {
		for i := 0; i < n; i++ {
			c0.Send(1, 5, []byte{byte(i)})
		}
	}()
	seen := make(map[byte]bool)
	buf := make([]byte, 1)
	for i := 0; i < n; i++ {
		if _, err := c1.Recv(0, 5, buf); err != nil {
			t.Fatal(err)
		}
		if seen[buf[0]] {
			t.Fatalf("payload %d delivered twice", buf[0])
		}
		seen[buf[0]] = true
	}
	if len(seen) != n {
		t.Fatalf("delivered %d distinct payloads, want %d", len(seen), n)
	}
	if w.Proc(1).Matcher().Stats().Relaxed == 0 {
		t.Fatal("relaxed path never used")
	}
}

package bench

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/dpa"
	"repro/internal/mpi"
	"repro/internal/obs"
)

// runRingOnce runs one in-process ring and returns its result, the extra
// windows it reported and the pairings the ranks' engines counted.
func runRingOnce(t *testing.T, engine mpi.EngineKind, inflight, ranks int, cfg RingConfig) (res *RingResult, extra, matched uint64) {
	t.Helper()
	matcher := PaperMatcherConfig()
	matcher.InFlightBlocks = inflight
	w, err := mpi.NewWorld(ranks, mpi.Options{
		Engine: engine, Matcher: matcher, DPA: dpa.Config{Threads: dpa.DefaultThreads},
		RecvDepth: 64, EagerLimit: 1024,
	})
	if err != nil {
		t.Fatalf("NewWorld: %v", err)
	}
	var windows atomic.Uint64
	cfg.OnExtraWindow = func() { windows.Add(1) }
	res, err = RunRing([]*mpi.World{w}, cfg)
	if err != nil {
		t.Fatalf("RunRing(window %d): %v", cfg.Window, err)
	}
	for _, nd := range res.Sinks {
		matched += nd.Sink.Counters.Load(obs.CtrMatched)
	}
	return res, windows.Load(), matched
}

// TestRingWindowsAgree pins that pacing changes nothing but the number of
// ready tokens: a window of K (the unpaced ring) and windows of 1, 3 and
// K−1 move the same messages, count exactly ranks × reps × (⌈K/window⌉ − 1)
// extra windows, and pair the same data — each extra window adds one token
// pairing and nothing else — on every engine and in-flight depth.
func TestRingWindowsAgree(t *testing.T) {
	const ranks, k, reps = 3, 8, 4
	for _, tc := range []struct {
		engine   mpi.EngineKind
		inflight int
	}{
		{mpi.EngineHost, 1}, {mpi.EngineRaw, 1},
		{mpi.EngineOffload, 1}, {mpi.EngineOffload, 4}, {mpi.EngineOffload, 8},
	} {
		t.Run(fmt.Sprintf("%v-k%d", tc.engine, tc.inflight), func(t *testing.T) {
			cfg := RingConfig{K: k, Reps: reps, PayloadBytes: 8, Window: k}
			base, baseExtra, baseMatched := runRingOnce(t, tc.engine, tc.inflight, ranks, cfg)
			if base.Messages != ranks*k*reps || baseExtra != 0 {
				t.Fatalf("window K: %d messages, %d extra windows", base.Messages, baseExtra)
			}
			if tc.engine == mpi.EngineOffload && base.Matcher.Retires != base.Matcher.Blocks {
				t.Errorf("totals read before quiescence: %d blocks, %d retired", base.Matcher.Blocks, base.Matcher.Retires)
			}
			for _, window := range []int{1, 3, k - 1, 0, k + 5} {
				cfg.Window = window
				res, extra, matched := runRingOnce(t, tc.engine, tc.inflight, ranks, cfg)
				want := uint64(0)
				if window >= 1 && window < k {
					want = uint64(ranks * reps * ((k+window-1)/window - 1))
				}
				if res.Messages != base.Messages {
					t.Errorf("window %d: %d messages, window K moved %d", window, res.Messages, base.Messages)
				}
				if extra != want {
					t.Errorf("window %d: %d extra windows, want %d", window, extra, want)
				}
				// Only the offload engine counts pairings (obs.CtrMatched).
				if tc.engine == mpi.EngineOffload && matched-extra != baseMatched {
					t.Errorf("window %d: %d pairings less %d tokens, window K paired %d",
						window, matched, extra, baseMatched)
				}
			}
		})
	}
}

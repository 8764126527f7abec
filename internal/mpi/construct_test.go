package mpi

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/dpa"
)

// daemonDefaultOptions is the world matchd builds for a spec that sets
// nothing (daemon.worldOptions of a normalized JobSpec): 256 bins, a
// 1088-receive table, 32 DPA threads and 64 bounce buffers per rank.
func daemonDefaultOptions(engine EngineKind) Options {
	return Options{
		Engine: engine,
		Matcher: core.Config{Bins: 256, MaxReceives: 1024 + 64, BlockSize: 32,
			InFlightBlocks: 1, EarlyBookingCheck: true},
		DPA:        dpa.Config{Threads: dpa.DefaultThreads},
		RecvDepth:  64,
		EagerLimit: 1024,
	}
}

// TestWorldConstructionBudget pins what an idle world costs: a world pays
// for bounce buffers, DPA workers and posted-receive buckets when its job
// first touches them, so constructing and closing a 2-rank daemon-default
// world stays within a few sinks, queues and tables, and building one
// starts no more than the engines' own loops.
func TestWorldConstructionBudget(t *testing.T) {
	for _, c := range []struct {
		engine EngineKind
		limit  uint64
	}{
		{EngineOffload, 80 << 10},
		{EngineHost, 24 << 10},
	} {
		opts := daemonDefaultOptions(c.engine)
		const rounds = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < rounds; i++ {
			w, err := NewWorld(2, opts)
			if err != nil {
				t.Fatal(err)
			}
			w.Close()
		}
		runtime.ReadMemStats(&after)
		per := (after.TotalAlloc - before.TotalAlloc) / rounds
		t.Logf("%v: NewWorld+Close allocates %d B", c.engine, per)
		if per > c.limit {
			t.Errorf("%v: NewWorld+Close allocates %d B, limit %d", c.engine, per, c.limit)
		}

		g := runtime.NumGoroutine()
		w, err := NewWorld(2, opts)
		if err != nil {
			t.Fatal(err)
		}
		grew := runtime.NumGoroutine() - g
		w.Close()
		t.Logf("%v: NewWorld starts %d goroutines", c.engine, grew)
		if grew > 2*2 {
			t.Errorf("%v: NewWorld started %d goroutines, at most 2 per rank", c.engine, grew)
		}
	}
}

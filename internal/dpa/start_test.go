package dpa

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// settleGoroutines waits up to two seconds for the goroutine count to come
// back to want, and reports the count it settled at.
func settleGoroutines(want int) int {
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	return runtime.NumGoroutine()
}

// TestAcceleratorStartsWorkersOnFirstWake pins the accelerator's
// pay-on-use contract: New starts nothing, a block that never asks for
// help starts nothing, the first wake starts all Threads workers at once,
// and a Close racing a first wake leaves no goroutine behind, whichever
// wins.
func TestAcceleratorStartsWorkersOnFirstWake(t *testing.T) {
	const threads = 8
	base := runtime.NumGoroutine()
	acc := MustNew(Config{Threads: threads})
	if n := runtime.NumGoroutine(); n != base {
		t.Fatalf("New started %d goroutines", n-base)
	}
	acc.RunBlock(1, func(int) {}) // a lone item has nobody to chain to
	if n := runtime.NumGoroutine(); n != base {
		t.Fatalf("a block of one started %d goroutines", n-base)
	}
	acc.RunBlock(2, func(int) {}) // claiming item 0 chains a wake for item 1
	if n := runtime.NumGoroutine(); n != base+threads {
		t.Fatalf("first chained block: %d goroutines started, want %d", n-base, threads)
	}
	acc.RunBlock(threads, func(int) {})
	if n := runtime.NumGoroutine(); n != base+threads {
		t.Fatalf("a later block: %d goroutines running, want %d", n-base, threads)
	}
	acc.Close()
	if n := settleGoroutines(base); n != base {
		t.Fatalf("Close left %d goroutines", n-base)
	}

	for round := 0; round < 200; round++ {
		acc := MustNew(Config{Threads: threads})
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			acc.RunBlock(2, func(int) {}) // its launcher drains it if nobody else will
		}()
		go func() {
			defer wg.Done()
			acc.Close()
		}()
		wg.Wait()
	}
	if n := settleGoroutines(base); n != base {
		buf := make([]byte, 1<<16)
		t.Fatalf("Close racing a first wake leaked %d goroutines\n%s", n-base, buf[:runtime.Stack(buf, true)])
	}
}

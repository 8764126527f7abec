package dpa

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// workers counts the live goroutines an accelerator started for its
// workers, started running or not. It counts them by their creator rather
// than by runtime.NumGoroutine, which also counts whatever an earlier test
// started and is still winding down.
func workers() int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "created by repro/internal/dpa.(*Accelerator).startWorkers")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// settleWorkers waits up to two seconds for the worker count to come back
// to want, and reports the count it settled at.
func settleWorkers(want int) int {
	deadline := time.Now().Add(2 * time.Second)
	n := workers()
	for n > want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		n = workers()
	}
	return n
}

// TestAcceleratorStartsWorkersOnFirstWake pins the accelerator's
// pay-on-use contract: New starts nothing, a block that never asks for
// help starts nothing, the first wake starts all Threads workers at once,
// and a Close racing a first wake leaves no goroutine behind, whichever
// wins.
func TestAcceleratorStartsWorkersOnFirstWake(t *testing.T) {
	const threads = 8
	base := settleWorkers(0) // an earlier test's closed accelerators wind down
	acc := MustNew(Config{Threads: threads})
	if n := workers(); n != base {
		t.Fatalf("New started %d goroutines", n-base)
	}
	acc.RunBlock(1, func(int) {}) // a lone item has nobody to chain to
	if n := workers(); n != base {
		t.Fatalf("a block of one started %d goroutines", n-base)
	}
	acc.RunBlock(2, func(int) {}) // claiming item 0 chains a wake for item 1
	if n := workers(); n != base+threads {
		t.Fatalf("first chained block: %d goroutines started, want %d", n-base, threads)
	}
	acc.RunBlock(threads, func(int) {})
	if n := workers(); n != base+threads {
		t.Fatalf("a later block: %d goroutines running, want %d", n-base, threads)
	}
	acc.Close()
	if n := settleWorkers(base); n != base {
		t.Fatalf("Close left %d workers", n-base)
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
	if n := settleWorkers(base); n != base {
		buf := make([]byte, 1<<16)
		t.Fatalf("Close racing a first wake leaked %d workers\n%s", n-base, buf[:runtime.Stack(buf, true)])
	}
}

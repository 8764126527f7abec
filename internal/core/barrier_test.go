package core

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/match"
)

// TestFrontierPrefixOrder is the partial-barrier property (§III-D1): a
// waiter for level i may only proceed once threads 0..i have all completed,
// regardless of the order completions arrive in.
func TestFrontierPrefixOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var f frontier
	for iter := 0; iter < 200; iter++ {
		n := 1 + rng.Intn(MaxBlockSize)
		f.reset(uint32(iter+1), barrierSpinBudget())

		// completed mirrors the frontier: bit i is set just before
		// complete(i), so a correctly released waiter for level l
		// must observe all of bits 0..l.
		var completed atomic.Uint64

		var wwg sync.WaitGroup
		var badLevel atomic.Int32
		for w := 0; w < n; w++ {
			lvl := rng.Intn(n)
			wwg.Add(1)
			go func() {
				defer wwg.Done()
				f.waitThrough(lvl)
				want := uint64(1)<<uint(lvl+1) - 1
				if completed.Load()&want != want {
					badLevel.Store(int32(lvl + 1))
				}
			}()
		}

		var cwg sync.WaitGroup
		for _, i := range rng.Perm(n) {
			cwg.Add(1)
			go func() {
				defer cwg.Done()
				completed.Or(uint64(1) << uint(i))
				f.complete(i)
			}()
		}
		cwg.Wait()
		wwg.Wait()
		if l := badLevel.Load(); l != 0 {
			t.Fatalf("iter %d (n=%d): waiter for level %d released before its prefix completed",
				iter, n, l-1)
		}
	}
}

// TestFrontierSingleThread covers the degenerate n=1 block and the
// waitThrough(-1) no-op used by thread 0.
func TestFrontierSingleThread(t *testing.T) {
	var f frontier
	f.reset(1, 0)
	f.waitThrough(-1) // must not block
	f.complete(0)
	f.waitThrough(0) // must not block either
}

// TestBarrierSpinsFollowGOMAXPROCS pins the spin budget to the scheduler
// width in effect when the matcher is built — not to the machine's CPU
// count at package init — and runs a full-barrier block at each width: with
// one P every waiter must yield at once or the block only finishes through
// preemption.
func TestBarrierSpinsFollowGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range []struct{ procs, want int }{{1, 0}, {2, 128}} {
		runtime.GOMAXPROCS(tc.procs)
		cfg := DefaultConfig()
		cfg.SimultaneousArrival = true
		m := MustNew(cfg)
		if m.barrierSpins != tc.want {
			t.Fatalf("GOMAXPROCS=%d: barrierSpins = %d, want %d", tc.procs, m.barrierSpins, tc.want)
		}
		n := cfg.BlockSize
		envs := make([]*match.Envelope, n)
		for i := range envs {
			if _, _, err := m.PostRecv(&match.Recv{Source: 1, Tag: match.Tag(i)}); err != nil {
				t.Fatal(err)
			}
			envs[i] = &match.Envelope{Source: 1, Tag: match.Tag(i)}
		}
		for i, res := range m.ArriveBlock(envs) {
			if res.Unexpected {
				t.Fatalf("GOMAXPROCS=%d: message %d went unexpected", tc.procs, i)
			}
		}
	}
}

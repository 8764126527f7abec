package core

import (
	"sync"

	"repro/internal/match"
)

// No production caller keeps several blocks of one batch in flight (the
// DPA pipeline begins blocks itself), so this driver lives with the tests
// that need it: inflight_test.go and descriptor_test.go.

// ArrivePipelined matches a batch of messages with up to
// Config.InFlightBlocks blocks in flight concurrently, returning one Result
// per message in input order. Blocks begin in arrival order (BeginBlock
// applies backpressure when the ring is full) and retire in order, so the
// results are the settled, validated outcomes. At depth 1 it degenerates to
// ArriveBlock.
func (m *OptimisticMatcher) ArrivePipelined(envs []*match.Envelope) []Result {
	out := make([]Result, len(envs))
	var wg sync.WaitGroup
	rest := out
	remaining := envs
	for len(remaining) > 0 {
		n := len(remaining)
		if n > m.cfg.BlockSize {
			n = m.cfg.BlockSize
		}
		chunk := remaining[:n]
		remaining = remaining[n:]
		res := rest[:n]
		rest = rest[n:]

		b := m.BeginBlock(n) // arrival order; blocks when the ring is full
		wg.Add(1)
		go func(b *Block, chunk []*match.Envelope, res []Result) {
			defer wg.Done()
			var mwg sync.WaitGroup
			mwg.Add(len(chunk))
			for tid := range chunk {
				go func(tid int) {
					defer mwg.Done()
					b.Match(tid, chunk[tid])
				}(tid)
			}
			mwg.Wait()
			b.FinishInto(res)
		}(b, chunk, res)
	}
	wg.Wait()
	return out
}

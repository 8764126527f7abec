package rdma

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRecvQueueGrowsToDepth pins the bounce queue's contract: buffers are
// made on first take, never more than depth of them, and credits are
// exactly those of a queue stocked with depth buffers up front — a
// lossless send blocks, and a faulty one returns ErrNoReceive, when and
// only when depth buffers are in use.
func TestRecvQueueGrowsToDepth(t *testing.T) {
	const depth, size = 20, 16 // two full slabs and a short one

	t.Run("concurrent takers", func(t *testing.T) {
		rq := NewBounceQueue(depth, size)
		var inUse, peak atomic.Int32
		var mu sync.Mutex
		seen := map[*byte]bool{}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 300; i++ {
					buf, _, ok := rq.Take(nil)
					if !ok || len(buf) != size || cap(buf) != size {
						t.Errorf("Take = (len %d, cap %d, %v), want a %d-byte buffer", len(buf), cap(buf), ok, size)
						return
					}
					n := inUse.Add(1)
					for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
					}
					mu.Lock()
					seen[&buf[0]] = true
					mu.Unlock()
					inUse.Add(-1)
					rq.Post(buf, 0)
				}
			}()
		}
		wg.Wait()
		rq.mu.Lock()
		made := rq.made
		rq.mu.Unlock()
		if made > depth || len(seen) > made || int(peak.Load()) > made {
			t.Fatalf("made %d buffers (%d seen, %d in use at peak), depth %d", made, len(seen), peak.Load(), depth)
		}

		// Hoard: exactly depth takes succeed, the next finds none and no
		// room to make one.
		closed := make(chan struct{})
		close(closed)
		for i := 0; i < depth; i++ {
			if _, _, ok := rq.Take(closed); !ok {
				t.Fatalf("take %d of %d failed", i, depth)
			}
		}
		if _, _, ok := rq.Take(closed); ok {
			t.Fatalf("take %d succeeded on a queue of depth %d", depth+1, depth)
		}
		if rq.made != depth {
			t.Fatalf("made %d buffers, depth %d", rq.made, depth)
		}
	})

	t.Run("lossless send blocks at depth", func(t *testing.T) {
		cq := NewCQ()
		rq := NewBounceQueue(depth, size)
		a, b := NewFabric().ConnectPair(QPConfig{}, QPConfig{RecvCQ: cq, RQ: rq})
		defer a.Close()
		defer b.Close()
		for i := 0; i < depth; i++ {
			if err := a.Send([]byte{byte(i)}, 0, 0); err != nil {
				t.Fatalf("send %d: %v", i, err)
			}
		}
		sent := make(chan error, 1)
		go func() { sent <- a.Send([]byte("late"), 0, 0) }()
		select {
		case err := <-sent:
			t.Fatalf("send with all %d buffers in use returned %v, want it to block", depth, err)
		case <-time.After(20 * time.Millisecond):
		}
		c, _ := cq.WaitIndex(0)
		rq.Post(c.Data[:cap(c.Data)], 0)
		select {
		case err := <-sent:
			if err != nil {
				t.Fatalf("send after a repost: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("send still blocked after a repost")
		}
		if c, ok := cq.WaitIndex(depth); !ok || string(c.Data) != "late" {
			t.Fatalf("late message delivered as %q", c.Data)
		}
	})

	t.Run("faulty send fails at depth", func(t *testing.T) {
		// Every send stalls for a nanosecond and nothing is lost: the plan
		// is active, so sends never block, and only credits decide.
		f := NewFabric()
		f.SetFaults(FaultPlan{Seed: 3, FaultRates: FaultRates{Stall: 1, StallTime: time.Nanosecond}})
		cq := NewCQ()
		rq := NewBounceQueue(depth, size)
		a, b := f.ConnectPair(QPConfig{}, QPConfig{RecvCQ: cq, RQ: rq})
		defer a.Close()
		defer b.Close()
		for i := 0; i < depth; i++ {
			if err := a.Send([]byte{byte(i)}, 0, 0); err != nil {
				t.Fatalf("send %d: %v", i, err)
			}
		}
		if err := a.Send([]byte("x"), 0, 0); err != ErrNoReceive {
			t.Fatalf("send with all %d buffers in use: %v, want ErrNoReceive", depth, err)
		}
		c, _ := cq.WaitIndex(0)
		rq.Post(c.Data[:cap(c.Data)], 0)
		if err := a.Send([]byte("y"), 0, 0); err != nil {
			t.Fatalf("send after a repost: %v", err)
		}
	})

	t.Run("fault schedule unchanged", func(t *testing.T) {
		// The same seeded plan over a bounce queue and over a queue stocked
		// with depth buffers up front: the same verdict per send, the same
		// deliveries, the same fault tallies.
		plan := FaultPlan{Seed: 42, FaultRates: FaultRates{Drop: 0.1, Duplicate: 0.2, Delay: 0.1, RNR: 0.05}}
		run := func(rq *RecvQueue) (errs []error, imms []uint32, snap FaultSnapshot) {
			f := NewFabric()
			f.SetFaults(plan)
			cq := NewCQ()
			a, b := f.ConnectPair(QPConfig{}, QPConfig{RecvCQ: cq, RQ: rq})
			defer a.Close()
			defer b.Close()
			next := uint64(0)
			var held [][]byte
			for i := 0; i < 400; i++ {
				errs = append(errs, a.Send([]byte{byte(i)}, uint32(i), 0))
				for ; ; next++ {
					c, ok := cq.Poll(next)
					if !ok {
						break
					}
					imms = append(imms, c.Imm)
					// Keep every third buffer a while, so credits run out.
					held = append(held, c.Data[:cap(c.Data)])
					if c.Imm%3 != 0 {
						rq.Post(held[len(held)-1], 0)
						held = held[:len(held)-1]
					}
				}
				if i%40 == 39 {
					for _, buf := range held {
						rq.Post(buf, 0)
					}
					held = held[:0]
				}
			}
			return errs, imms, FaultSnapshotOf(f.Obs())
		}
		stocked := NewRecvQueue(depth)
		for i := 0; i < depth; i++ {
			stocked.Post(make([]byte, size), uint64(i))
		}
		wantErrs, wantImms, wantSnap := run(stocked)
		gotErrs, gotImms, gotSnap := run(NewBounceQueue(depth, size))
		for i := range wantErrs {
			if gotErrs[i] != wantErrs[i] {
				t.Fatalf("send %d: %v over a bounce queue, %v over a stocked one", i, gotErrs[i], wantErrs[i])
			}
		}
		if len(gotImms) != len(wantImms) {
			t.Fatalf("delivered %d messages, stocked queue %d", len(gotImms), len(wantImms))
		}
		for i := range wantImms {
			if gotImms[i] != wantImms[i] {
				t.Fatalf("delivery %d: imm %d, stocked queue %d", i, gotImms[i], wantImms[i])
			}
		}
		if gotSnap != wantSnap || gotSnap.RNRs == 0 {
			t.Fatalf("faults %+v, stocked queue %+v (want equal, with RNRs)", gotSnap, wantSnap)
		}
	})
}

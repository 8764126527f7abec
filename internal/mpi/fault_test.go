package mpi

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/rdma"
)

// testFaultPlan is the fixed-seed schedule the acceptance criteria name:
// 5% drop, 2% duplication, plus mild reordering and RNR pressure.
func testFaultPlan() rdma.FaultPlan {
	return rdma.FaultPlan{
		Seed: 42,
		FaultRates: rdma.FaultRates{
			Drop:      0.05,
			Duplicate: 0.02,
			Delay:     0.02,
			RNR:       0.02,
		},
	}
}

// newFaultWorld builds a world whose in-process fabric injects plan.
func newFaultWorld(t *testing.T, n int, kind EngineKind, plan rdma.FaultPlan) *World {
	t.Helper()
	w, err := NewWorld(n, Options{
		Engine:     kind,
		EagerLimit: 64,
		Matcher: core.Config{
			Bins: 128, MaxReceives: 1024, BlockSize: 8,
			EarlyBookingCheck: true,
		},
		Faults: plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w
}

// recvRecord is one completed receive as the application observed it.
type recvRecord struct {
	Source  int
	Tag     int
	Count   int
	Payload string
}

// workPayload is the deterministic byte pattern for message i from s to d;
// every third message exceeds the 64-byte eager limit and rides the
// rendezvous protocol.
func workPayload(s, d, i int) []byte {
	size := 1 + (i % 48)
	if i%3 == 2 {
		size = 160
	}
	b := make([]byte, size)
	for j := range b {
		b[j] = byte(7*s + 13*d + 31*i + j)
	}
	return b
}

// runPairWorkload drives K fully-specified messages along every ordered
// rank pair concurrently and returns, per rank, the in-order receive
// records from each source — the matcher-visible outcome. Fully-specified
// receives make the pairing deterministic, so the outcome is comparable
// across runs regardless of fault schedule.
func runPairWorkload(t *testing.T, w *World, k int) [][][]recvRecord {
	t.Helper()
	n := w.Size()
	out := make([][][]recvRecord, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		out[r] = make([][]recvRecord, n)
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := w.Proc(r).World()
			var sends []*Request
			var recvs []*Request
			bufs := make(map[[2]int][]byte)
			// Post all receives first (some traffic arrives unexpected
			// anyway, exercising both matcher queues).
			for s := 0; s < n; s++ {
				if s == r {
					continue
				}
				for i := 0; i < k; i++ {
					buf := make([]byte, 256)
					bufs[[2]int{s, i}] = buf
					req, err := c.Irecv(s, s*k+i, buf)
					if err != nil {
						errs[r] = err
						return
					}
					recvs = append(recvs, req)
				}
			}
			for d := 0; d < n; d++ {
				if d == r {
					continue
				}
				for i := 0; i < k; i++ {
					req, err := c.Isend(d, r*k+i, workPayload(r, d, i))
					if err != nil {
						errs[r] = err
						return
					}
					sends = append(sends, req)
				}
			}
			if err := Waitall(sends...); err != nil {
				errs[r] = err
				return
			}
			idx := 0
			for s := 0; s < n; s++ {
				if s == r {
					continue
				}
				for i := 0; i < k; i++ {
					st, err := recvs[idx].Wait()
					idx++
					if err != nil {
						errs[r] = fmt.Errorf("recv (src=%d i=%d): %w", s, i, err)
						return
					}
					buf := bufs[[2]int{s, i}]
					out[r][s] = append(out[r][s], recvRecord{
						Source:  st.Source,
						Tag:     st.Tag,
						Count:   st.Count,
						Payload: string(buf[:st.Count]),
					})
				}
			}
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return out
}

// verifyWorkload checks every record against the deterministic pattern.
func verifyWorkload(t *testing.T, out [][][]recvRecord, k int) {
	t.Helper()
	for r := range out {
		for s := range out[r] {
			if s == r || len(out[r][s]) == 0 {
				continue
			}
			for i, rec := range out[r][s] {
				want := workPayload(s, r, i)
				if rec.Source != s || rec.Tag != s*k+i || rec.Count != len(want) ||
					rec.Payload != string(want) {
					t.Fatalf("rank %d src %d msg %d: got {src=%d tag=%d n=%d}, want {src=%d tag=%d n=%d}",
						r, s, i, rec.Source, rec.Tag, rec.Count, s, s*k+i, len(want))
				}
			}
		}
	}
}

// TestGoldenEquivalenceUnderFaults is the acceptance criterion: with the
// fixed-seed 5%-drop/2%-dup plan, matcher-visible outcomes are identical
// to the fault-free run, and the repair machinery demonstrably worked.
func TestGoldenEquivalenceUnderFaults(t *testing.T) {
	const k = 30
	for _, kind := range matchingEngines() {
		t.Run(kind.String(), func(t *testing.T) {
			golden := runPairWorkload(t, newFaultWorld(t, 4, kind, rdma.FaultPlan{}), k)
			verifyWorkload(t, golden, k)

			w := newFaultWorld(t, 4, kind, testFaultPlan())
			faulty := runPairWorkload(t, w, k)
			if !reflect.DeepEqual(golden, faulty) {
				t.Fatal("matching outcomes differ between fault-free and faulty runs")
			}
			fs := w.FaultStats()
			if fs.Dropped == 0 && fs.Duplicated == 0 {
				t.Fatalf("fault plan injected nothing: %v", fs)
			}
			rs := w.ReliabilityStats()
			if rs.Retransmits == 0 {
				t.Fatalf("drops were never repaired: %+v", rs)
			}
			if rs.DupDropped == 0 {
				t.Fatalf("no duplicate was suppressed: %+v", rs)
			}
		})
	}
}

// TestPingPongUnderFaults runs a strict request-reply ping-pong through
// the faulty fabric: every reply must echo the request bytes exactly.
func TestPingPongUnderFaults(t *testing.T) {
	for _, kind := range matchingEngines() {
		t.Run(kind.String(), func(t *testing.T) {
			w := newFaultWorld(t, 2, kind, testFaultPlan())
			const rounds = 200
			done := make(chan error, 1)
			go func() {
				c := w.Proc(1).World()
				buf := make([]byte, 256)
				for i := 0; i < rounds; i++ {
					st, err := c.Recv(0, i, buf)
					if err != nil {
						done <- err
						return
					}
					if err := c.Send(0, i, buf[:st.Count]); err != nil {
						done <- err
						return
					}
				}
				done <- nil
			}()
			c := w.Proc(0).World()
			echo := make([]byte, 256)
			for i := 0; i < rounds; i++ {
				msg := workPayload(0, 1, i)
				if err := c.Send(1, i, msg); err != nil {
					t.Fatal(err)
				}
				st, err := c.Recv(1, i, echo)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(echo[:st.Count], msg) {
					t.Fatalf("round %d: echo mismatch (%d vs %d bytes)", i, st.Count, len(msg))
				}
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if rs := w.ReliabilityStats(); rs.Sent == 0 {
				t.Fatal("reliability layer saw no traffic")
			}
		})
	}
}

// TestCollectivesUnderFaults runs the collectives over the faulty fabric
// and checks their results against the closed-form answers.
func TestCollectivesUnderFaults(t *testing.T) {
	for _, kind := range matchingEngines() {
		t.Run(kind.String(), func(t *testing.T) {
			const n = 5
			w := newFaultWorld(t, n, kind, testFaultPlan())
			// Bcast from every root.
			for root := 0; root < n; root++ {
				payload := []byte(fmt.Sprintf("bcast-from-%d", root))
				runAll(t, w, func(c Comm) error {
					buf := make([]byte, len(payload))
					if c.Rank() == root {
						copy(buf, payload)
					}
					if err := c.Bcast(root, buf); err != nil {
						return err
					}
					if !bytes.Equal(buf, payload) {
						return fmt.Errorf("rank %d got %q", c.Rank(), buf)
					}
					return nil
				})
			}
			// Allreduce sum of ranks.
			want := float64(n*(n-1)) / 2
			runAll(t, w, func(c Comm) error {
				out := make([]byte, 8)
				if err := c.Allreduce(PackFloat64s([]float64{float64(c.Rank())}), OpSumFloat64, out); err != nil {
					return err
				}
				if got := UnpackFloat64s(out)[0]; got != want {
					return fmt.Errorf("rank %d: allreduce = %v, want %v", c.Rank(), got, want)
				}
				return nil
			})
			// Reduce to every root in turn, each rank filling its own slot.
			for root := 0; root < n; root++ {
				runAll(t, w, func(c Comm) error {
					slots := make([]float64, n)
					slots[c.Rank()] = float64(c.Rank() + 1)
					out := make([]byte, 8*n)
					if err := c.Reduce(root, PackFloat64s(slots), OpSumFloat64, out); err != nil {
						return err
					}
					if c.Rank() != root {
						return nil
					}
					for i, v := range UnpackFloat64s(out) {
						if v != float64(i+1) {
							return fmt.Errorf("root %d slot %d: %v", root, i, v)
						}
					}
					return nil
				})
			}
		})
	}
}

// TestFaultPropertyRandomSeeds is the property test: across random seeds
// and random rate mixes, every payload still arrives intact, in order,
// exactly once. Run under -race in CI.
func TestFaultPropertyRandomSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("property sweep is slow")
	}
	const k = 15
	for trial := 0; trial < 6; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		plan := rdma.FaultPlan{
			Seed: rng.Uint64(),
			FaultRates: rdma.FaultRates{
				Drop:      rng.Float64() * 0.08,
				Duplicate: rng.Float64() * 0.05,
				Delay:     rng.Float64() * 0.05,
				DelaySpan: 1 + rng.Intn(3),
				RNR:       rng.Float64() * 0.05,
				Stall:     rng.Float64() * 0.02,
			},
		}
		kind := matchingEngines()[trial%len(matchingEngines())]
		t.Run(fmt.Sprintf("trial=%d/%v", trial, kind), func(t *testing.T) {
			w := newFaultWorld(t, 3, kind, plan)
			out := runPairWorkload(t, w, k)
			verifyWorkload(t, out, k)
		})
	}
}

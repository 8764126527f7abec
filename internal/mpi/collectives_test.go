package mpi

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// runAll executes fn on every rank concurrently and fails on any error.
func runAll(t *testing.T, w *World, fn func(c Comm) error) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, w.Size())
	for r := 0; r < w.Size(); r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = fn(w.Proc(r).World())
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

func TestBcast(t *testing.T) {
	for _, kind := range matchingEngines() {
		for _, n := range []int{1, 2, 5, 8} {
			t.Run(fmt.Sprintf("%v/n=%d", kind, n), func(t *testing.T) {
				w := newTestWorld(t, n, kind)
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
			})
		}
	}
}

func TestReduceSum(t *testing.T) {
	for _, kind := range matchingEngines() {
		t.Run(kind.String(), func(t *testing.T) {
			const n = 6
			w := newTestWorld(t, n, kind)
			// Every rank contributes [rank, 2*rank] as float64s.
			want0 := 0.0
			want1 := 0.0
			for r := 0; r < n; r++ {
				want0 += float64(r)
				want1 += 2 * float64(r)
			}
			runAll(t, w, func(c Comm) error {
				data := PackFloat64s([]float64{float64(c.Rank()), 2 * float64(c.Rank())})
				out := make([]byte, len(data))
				if err := c.Reduce(2, data, OpSumFloat64, out); err != nil {
					return err
				}
				if c.Rank() == 2 {
					vs := UnpackFloat64s(out)
					if vs[0] != want0 || vs[1] != want1 {
						return fmt.Errorf("reduce got %v, want [%v %v]", vs, want0, want1)
					}
				}
				return nil
			})
		})
	}
}

// opMaxFloat64 keeps the element-wise maximum (MPI_MAX over MPI_DOUBLE):
// an op other than the package's sum, to drive Allreduce with.
func opMaxFloat64(acc, src []byte) {
	for i := 0; i+8 <= len(acc); i += 8 {
		if s := UnpackFloat64s(src[i : i+8])[0]; s > UnpackFloat64s(acc[i : i+8])[0] {
			copy(acc[i:i+8], src[i:i+8])
		}
	}
}

func TestAllreduceMax(t *testing.T) {
	for _, kind := range matchingEngines() {
		t.Run(kind.String(), func(t *testing.T) {
			const n = 7
			w := newTestWorld(t, n, kind)
			runAll(t, w, func(c Comm) error {
				data := PackFloat64s([]float64{float64(c.Rank() * 10)})
				out := make([]byte, len(data))
				if err := c.Allreduce(data, opMaxFloat64, out); err != nil {
					return err
				}
				if got := UnpackFloat64s(out)[0]; got != float64((n-1)*10) {
					return fmt.Errorf("rank %d: allreduce max = %v", c.Rank(), got)
				}
				return nil
			})
		})
	}
}

func TestAllreduceRepeated(t *testing.T) {
	// Back-to-back collectives on one communicator must not cross-match
	// (per-pair FIFO keeps rounds ordered even with shared tags).
	w := newTestWorld(t, 4, EngineOffload)
	runAll(t, w, func(c Comm) error {
		for round := 1; round <= 5; round++ {
			data := PackFloat64s([]float64{float64(round)})
			out := make([]byte, len(data))
			if err := c.Allreduce(data, OpSumFloat64, out); err != nil {
				return err
			}
			if got := UnpackFloat64s(out)[0]; got != float64(4*round) {
				return fmt.Errorf("round %d: sum = %v, want %d", round, got, 4*round)
			}
		}
		return nil
	})
}

func TestCollectivesDoNotLeakToWildcards(t *testing.T) {
	// A wildcard receive on the user context must never intercept
	// collective tree traffic.
	w := newTestWorld(t, 2, EngineHost)
	buf := make([]byte, 64)
	wildcard, err := w.Proc(1).World().Irecv(AnySource, AnyTag, buf)
	if err != nil {
		t.Fatal(err)
	}
	runAll(t, w, func(c Comm) error {
		b := []byte("collective")
		if c.Rank() != 0 {
			b = make([]byte, 10)
		}
		return c.Bcast(0, b)
	})
	if _, done, _ := wildcard.Test(); done {
		t.Fatal("wildcard receive matched collective traffic")
	}
	// Complete the wildcard receive with a real message so Close is clean.
	if err := w.Proc(0).World().Send(1, 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := wildcard.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestReduceValidation(t *testing.T) {
	w := newTestWorld(t, 2, EngineHost)
	c := w.Proc(0).World()
	if err := c.Reduce(0, []byte{1}, nil, make([]byte, 1)); err == nil {
		t.Error("nil op accepted")
	}
	if err := c.Reduce(9, []byte{1}, OpSumFloat64, make([]byte, 1)); err == nil {
		t.Error("bad root accepted")
	}
	if err := c.Bcast(9, nil); err == nil {
		t.Error("bad bcast root accepted")
	}
}

func TestOpHelpers(t *testing.T) {
	a := PackFloat64s([]float64{1, 5})
	b := PackFloat64s([]float64{3, 2})
	OpSumFloat64(a, b)
	if vs := UnpackFloat64s(a); vs[0] != 4 || vs[1] != 7 {
		t.Fatalf("sum = %v", vs)
	}
}

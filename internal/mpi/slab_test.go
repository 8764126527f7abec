package mpi

import (
	"fmt"
	"testing"
)

// TestSlabRoundTripAllocs is the allocation guard behind the slab's "0
// allocs/op hot path": once a class is warm, get followed by put allocates
// nothing — not the buffer, and not the header the pool stores it under.
func TestSlabRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops puts at random")
	}
	var s slab
	for c := 0; c < slabClasses; c++ {
		n := 1 << (c + slabMinBits)
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			s.put(s.get(n)) // warm the class and the box pool
			if got := testing.AllocsPerRun(100, func() { s.put(s.get(n)) }); got != 0 {
				t.Fatalf("get+put of %d bytes: %v allocs per round trip, want 0", n, got)
			}
			if buf := s.get(n - 1); len(buf) != n-1 || cap(buf) != n {
				t.Fatalf("get(%d): len %d cap %d, want cap %d", n-1, len(buf), cap(buf), n)
			}
		})
	}
}

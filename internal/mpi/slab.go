package mpi

import (
	"math/bits"
	"sync"
)

// slab is a size-classed buffer allocator: one sync.Pool per power-of-two
// capacity class. It backs the variable-length scratch buffers of the
// send path — eager wire staging and the reliability layer's retained
// retransmit copies (a stabilized unexpected payload lives in its
// envelope, match.Envelope.Stabilize) — so buffer reuse survives the size
// variance coalescing introduces (a frame can be forty times larger than a
// lone eager message) without falling back to make() and regressing the
// 0 allocs/op hot path.
type slab struct {
	pools [slabClasses]sync.Pool

	// boxes recycles the *[]byte headers the class pools store (a slice in
	// an interface would allocate its header on every put): get empties a
	// box into here, put refills one from here, so a round trip allocates
	// nothing.
	boxes sync.Pool
}

const (
	// slabMinBits is the smallest class (64 bytes — one wire header).
	slabMinBits = 6
	// slabMaxBits is the largest class (1 MiB); larger requests are plain
	// allocations that put discards.
	slabMaxBits = 20
	slabClasses = slabMaxBits - slabMinBits + 1
)

// slabClass returns the pool index whose capacity holds n bytes, or -1
// when n exceeds the largest class.
func slabClass(n int) int {
	if n <= 1<<slabMinBits {
		return 0
	}
	c := bits.Len(uint(n-1)) - slabMinBits
	if c >= slabClasses {
		return -1
	}
	return c
}

// get returns a buffer with len n from the matching class.
func (s *slab) get(n int) []byte {
	c := slabClass(n)
	if c < 0 {
		return make([]byte, n)
	}
	if bp, ok := s.pools[c].Get().(*[]byte); ok {
		buf := (*bp)[:n]
		*bp = nil
		s.boxes.Put(bp)
		return buf
	}
	return make([]byte, n, 1<<(c+slabMinBits))
}

// put recycles a buffer obtained from get. Buffers whose capacity is not
// an exact class size (oversize allocations, foreign slices) are dropped.
func (s *slab) put(buf []byte) {
	c := cap(buf)
	if c < 1<<slabMinBits || c&(c-1) != 0 {
		return
	}
	cls := bits.Len(uint(c)) - 1 - slabMinBits
	if cls >= slabClasses {
		return
	}
	bp, ok := s.boxes.Get().(*[]byte)
	if !ok {
		bp = new([]byte)
	}
	*bp = buf[:0]
	s.pools[cls].Put(bp)
}

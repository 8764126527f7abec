// Package recycle hands arrays a finished owner released to the next owner
// that needs one of the same length: a world's slabs and tables to the next.
package recycle

import "sync"

// ByLen recycles slices of T, one sync.Pool per length. Get clears what it
// hands out: a recycled slice is indistinguishable from make's, pointers
// included. Idle slices go within two GCs. The zero value is ready to use.
type ByLen[T any] struct {
	mu    sync.Mutex
	pools map[int]*sync.Pool // of *[]T
	boxes sync.Pool          // empty *[]T headers, so that Put allocates none
}

// Get returns a zeroed slice of length n, a released one if there is one.
func (r *ByLen[T]) Get(n int) []T {
	if bp, ok := r.pool(n).Get().(*[]T); ok {
		s := *bp
		*bp = nil
		r.boxes.Put(bp)
		clear(s)
		return s
	}
	return make([]T, n)
}

// Put releases s for a later Get of len(s); nothing else may hold its
// backing array. An empty s is ignored.
func (r *ByLen[T]) Put(s []T) {
	if len(s) == 0 {
		return
	}
	bp, ok := r.boxes.Get().(*[]T)
	if !ok {
		bp = new([]T)
	}
	*bp = s
	r.pool(len(s)).Put(bp)
}

func (r *ByLen[T]) pool(n int) *sync.Pool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.pools == nil {
		r.pools = map[int]*sync.Pool{}
	}
	p := r.pools[n]
	if p == nil {
		p = new(sync.Pool)
		r.pools[n] = p
	}
	return p
}

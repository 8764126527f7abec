// Package recycle hands what a finished owner released to the next owner
// that needs one of the same shape: a world's slabs and tables to the next,
// a replayed shard's matcher to the next shard's.
package recycle

import "sync"

// ByKey recycles *T values, one sync.Pool per key. It hands back what was
// put, unchanged: the caller resets it. Idle values go within two GCs. The
// zero value is ready to use.
type ByKey[K comparable, T any] struct {
	mu    sync.Mutex
	pools map[K]*sync.Pool // of *T
}

// Get returns a value released under k, or nil if there is none.
func (r *ByKey[K, T]) Get(k K) *T {
	v, _ := r.pool(k).Get().(*T)
	return v
}

// Put releases v for a later Get of k; nothing else may hold it.
func (r *ByKey[K, T]) Put(k K, v *T) { r.pool(k).Put(v) }

func (r *ByKey[K, T]) pool(k K) *sync.Pool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.pools == nil {
		r.pools = map[K]*sync.Pool{}
	}
	p := r.pools[k]
	if p == nil {
		p = new(sync.Pool)
		r.pools[k] = p
	}
	return p
}

// ByLen recycles slices of T by length. Get clears what it hands out: a
// recycled slice is indistinguishable from make's, pointers included. The
// zero value is ready to use.
type ByLen[T any] struct {
	byLen ByKey[int, []T]
	boxes sync.Pool // empty *[]T headers, so that Put allocates none
}

// Get returns a zeroed slice of length n, a released one if there is one.
func (r *ByLen[T]) Get(n int) []T {
	if bp := r.byLen.Get(n); bp != nil {
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
	r.byLen.Put(len(s), bp)
}

package recycle

import "testing"

// TestByLenClearsAndKeysByLength pins the two promises of ByLen: what Get
// hands out is zeroed whatever its previous owner wrote, and a slice goes
// only to a Get of its own length.
func TestByLenClearsAndKeysByLength(t *testing.T) {
	var r ByLen[*int]
	x := 7
	for i := 0; i < 4; i++ {
		s := r.Get(3)
		for j, p := range s {
			if p != nil {
				t.Fatalf("Get(3)[%d] = %p, want nil", j, p)
			}
			s[j] = &x
		}
		r.Put(s)
		if got := r.Get(4); len(got) != 4 {
			t.Fatalf("Get(4) has length %d", len(got))
		}
	}
	r.Put(nil) // ignored
}

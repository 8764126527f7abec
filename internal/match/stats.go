package match

// Stats accumulates search-cost statistics for a matching engine. The
// paper's Figure 7 reports "queue depth": the number of queue entries
// examined while searching for a match. With a single bin this is the
// classic linked-list traversal length; with b bins it shrinks roughly by
// a factor of b unless keys collide.
type Stats struct {
	// PostSearches is the number of PostRecv operations that searched the
	// unexpected store.
	PostSearches uint64
	// PostTraversed is the total number of unexpected entries examined
	// across all PostRecv searches.
	PostTraversed uint64
	// PostMaxDepth is the largest number of entries examined by a single
	// PostRecv search.
	PostMaxDepth uint64

	// ArriveSearches is the number of Arrive operations that searched the
	// posted-receive store.
	ArriveSearches uint64
	// ArriveTraversed is the total number of posted entries examined across
	// all Arrive searches.
	ArriveTraversed uint64
	// ArriveMaxDepth is the largest number of entries examined by a single
	// Arrive search.
	ArriveMaxDepth uint64

	// Matched counts completed pairings; Unexpected counts messages stored
	// without a match; Queued counts receives stored without a match.
	Matched    uint64
	Unexpected uint64
	Queued     uint64
}

// recordPost folds one PostRecv search of depth d into the statistics.
func (s *Stats) recordPost(d uint64) {
	s.PostSearches++
	s.PostTraversed += d
	if d > s.PostMaxDepth {
		s.PostMaxDepth = d
	}
}

// recordArrive folds one Arrive search of depth d into the statistics.
func (s *Stats) recordArrive(d uint64) {
	s.ArriveSearches++
	s.ArriveTraversed += d
	if d > s.ArriveMaxDepth {
		s.ArriveMaxDepth = d
	}
}

// AvgArriveDepth returns the mean number of posted entries examined per
// Arrive search, the quantity plotted in Figure 7.
func (s Stats) AvgArriveDepth() float64 {
	if s.ArriveSearches == 0 {
		return 0
	}
	return float64(s.ArriveTraversed) / float64(s.ArriveSearches)
}

// AvgPostDepth returns the mean number of unexpected entries examined per
// PostRecv search.
func (s Stats) AvgPostDepth() float64 {
	if s.PostSearches == 0 {
		return 0
	}
	return float64(s.PostTraversed) / float64(s.PostSearches)
}

// Delivered returns the number of messages the arrival path delivered into
// matching. Every arriving message either pairs immediately (arrive-side
// Matched) or is stored unexpected; Matched additionally counts post-side
// pairings against the unexpected store, which are PostSearches - Queued
// (posts that did not queue). Delivered is therefore independent of how
// arrivals were batched on the wire — coalesced frames may share searches,
// so ArriveSearches is NOT a message count — and it is the quantity the
// cost model prices per message (the host-side analogue of the offload
// engine's EngineStats.Messages).
func (s Stats) Delivered() uint64 {
	postMatches := s.PostSearches - s.Queued
	d := s.Matched + s.Unexpected
	if postMatches > d {
		return 0
	}
	return d - postMatches
}

// Add returns the element-wise accumulation of s and t (max fields take the
// maximum). It is used to merge per-rank statistics.
func (s Stats) Add(t Stats) Stats {
	out := s
	out.PostSearches += t.PostSearches
	out.PostTraversed += t.PostTraversed
	if t.PostMaxDepth > out.PostMaxDepth {
		out.PostMaxDepth = t.PostMaxDepth
	}
	out.ArriveSearches += t.ArriveSearches
	out.ArriveTraversed += t.ArriveTraversed
	if t.ArriveMaxDepth > out.ArriveMaxDepth {
		out.ArriveMaxDepth = t.ArriveMaxDepth
	}
	out.Matched += t.Matched
	out.Unexpected += t.Unexpected
	out.Queued += t.Queued
	return out
}

//go:build !race

package analyzer

// raceEnabled reports whether the race detector is active; under it sync.Pool
// drops a quarter of what it is given, so alloc-exactness guards skip.
const raceEnabled = false

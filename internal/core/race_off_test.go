//go:build !race

package core

// raceEnabled reports whether the race detector is active; under it sync.Pool
// drops a quarter of what it is given, so checks that a released array comes
// back skip.
const raceEnabled = false

//go:build race

package bench

// raceEnabled reports whether the race detector is active; its slowdown
// changes how full matching blocks form, which moves modeled rates that
// depend on block fill out of their bands.
const raceEnabled = true

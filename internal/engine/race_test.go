//go:build race

package engine

// raceEnabled reports whether the race detector is compiled in; it adds
// allocations of its own, so allocation-count tests skip under it.
const raceEnabled = true

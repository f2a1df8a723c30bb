//go:build !race

package hepim

// raceEnabled reports whether the race detector is active; allocation
// assertions skip under it, because its instrumentation allocates.
const raceEnabled = false

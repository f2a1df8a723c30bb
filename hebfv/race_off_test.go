//go:build !race

package hebfv

// raceEnabled reports whether the race detector is active; allocation
// assertions skip under it (sync.Pool intentionally drops items to
// widen race coverage, so pooled paths allocate).
const raceEnabled = false

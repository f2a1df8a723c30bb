//go:build race

package hebfv

const raceEnabled = true

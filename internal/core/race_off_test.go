//go:build !race

package core

// raceEnabled reports whether the race detector is compiled in; the
// HugeConfig fold test skips under -race, where the 76.8M-sample fill
// is an order of magnitude slower.
const raceEnabled = false

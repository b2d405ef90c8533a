//go:build !race

package monitord

// raceEnabled reports whether the race detector is compiled in; the
// allocation-budget test skips under -race, whose instrumentation
// allocates on its own.
const raceEnabled = false

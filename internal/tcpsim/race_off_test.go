//go:build !race

package tcpsim

// raceEnabled reports whether the race detector is compiled in; the
// instrumented build allocates where the plain one does not, so
// TestRunAllocs skips under -race.
const raceEnabled = false

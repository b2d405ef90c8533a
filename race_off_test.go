//go:build !race

package quicksand

// raceEnabled reports whether the race detector is compiled in; the
// paper-scale E10 gate skips under -race, like the 73K tests of
// internal/topology.
const raceEnabled = false

//go:build !race

package resilience_test

// raceEnabled reports whether the race detector is compiled in; the
// 73K-scale gate skips under -race, like the 73K tests of
// internal/topology.
const raceEnabled = false

//go:build !race

package main

// raceEnabled reports whether the race detector is compiled in; the
// paper-scale and 73K-scale gate tests skip under -race, like the 73K
// tests of internal/topology.
const raceEnabled = false

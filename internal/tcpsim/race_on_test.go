//go:build race

package tcpsim

// raceEnabled reports whether the race detector is compiled in; see
// race_off_test.go.
const raceEnabled = true

//go:build race

package quicksand

// raceEnabled reports whether the race detector is compiled in; see
// race_off_test.go.
const raceEnabled = true

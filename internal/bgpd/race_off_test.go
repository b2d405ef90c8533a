//go:build !race

package bgpd

// raceEnabled reports whether the race detector is compiled in; the
// instrumented build allocates where the plain one does not, so the
// allocation bounds skip under -race.
const raceEnabled = false

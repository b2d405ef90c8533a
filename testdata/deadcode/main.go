// Command deadcode is the fixture of TestDeadNamesFixture: one name of
// each kind the dead-name scan must flag, and of each it must pass.
package main

import "fmt"

// red is used and green is not: a const (…) group counts as used when
// any member is.
const (
	red = iota
	green
)

type shape interface{ area() int }

type square struct {
	side  int
	label string // written, never read: flagged
}

// area is called only through shape: used.
func (s square) area() int { return s.side * s.side }

// reset is called only by main_test.go: flagged.
func (s *square) reset() { s.side = 0 }

// receiverOnly is named only in its own method's receiver: flagged. Its
// String is reached through fmt.Stringer.
type receiverOnly struct{}

func (receiverOnly) String() string { return "r" }

// unused is called by nothing: flagged.
func unused() int { return 1 }

// countdown calls only itself: flagged.
func countdown(n int) int {
	if n == 0 {
		return 0
	}
	return countdown(n - 1)
}

func main() {
	var s shape = square{side: red + 2, label: "s"}
	fmt.Println(s.area())
}

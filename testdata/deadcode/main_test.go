package main

import "testing"

func TestReset(t *testing.T) {
	s := square{side: 2}
	s.reset()
	if s.side != 0 {
		t.Fatal(s.side)
	}
}

package bgpsim

import "testing"

// TestRunStreamEvents pins what the run's schedule emits, read off the
// stream: link-down events alone produce ordinary (non-transfer)
// updates, and every session reset that is not overtaken by a longer
// overlapping one ends in a table transfer — Transfer-flagged updates on
// that session at its re-establishment instant.
func TestRunStreamEvents(t *testing.T) {
	g, origins := testWorld(t)
	sim, err := New(g, origins)
	if err != nil {
		t.Fatal(err)
	}

	links := testConfig()
	links.PolicyEvents, links.ResetsPerSessionMean = 0, 0
	st, err := sim.Run(links)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Updates) == 0 || len(st.Resets) != 0 {
		t.Fatalf("link events only: %d updates, %d resets; want updates and no resets", len(st.Updates), len(st.Resets))
	}
	for _, u := range st.Updates {
		if u.Transfer {
			t.Fatalf("link events only: transfer update %+v without a reset", u)
		}
	}

	st, err = sim.Run(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Resets) == 0 {
		t.Fatal("the test config produced no session resets")
	}
	transfers := map[int]map[int64]int{} // session -> up instant -> transfer updates
	for _, u := range st.Updates {
		if u.Transfer {
			if transfers[u.Session] == nil {
				transfers[u.Session] = map[int64]int{}
			}
			transfers[u.Session][u.Time.UnixNano()]++
		}
	}
	for _, r := range st.Resets {
		overtaken := false
		for _, o := range st.Resets {
			overtaken = overtaken || o.Session == r.Session && !o.Down.After(r.Up) && o.Up.After(r.Up)
		}
		if !overtaken && transfers[r.Session][r.Up.UnixNano()] == 0 {
			t.Errorf("reset %+v: no Transfer-flagged updates at re-establishment", r)
		}
	}
}

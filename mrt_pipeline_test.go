package quicksand

import (
	"bytes"
	"net/netip"
	"testing"

	"quicksand/internal/analysis"
	"quicksand/internal/bgpsim"
)

// TestAnalysisFromMRTArchives proves the archive-grade path end to end:
// the simulated stream is exported to MRT files (one RIB snapshot and one
// update archive per collector, exactly what RIPE RIS publishes), read
// back, and the churn analysis — with the burst reset heuristic, since
// the ground-truth Transfer flags do not survive the format — produces
// the same per-prefix change counts as the same heuristic applied to the
// in-memory stream.
func TestAnalysisFromMRTArchives(t *testing.T) {
	w := smallWorld(t)
	st := smallStream(t)

	collector := st.Sessions[0].Collector
	var rib, upd bytes.Buffer
	if err := st.ExportRIB(&rib, collector); err != nil {
		t.Fatal(err)
	}
	if err := st.ExportUpdates(&upd, collector); err != nil {
		t.Fatal(err)
	}
	imported, err := bgpsim.ImportMRT(&rib, &upd, collector)
	if err != nil {
		t.Fatal(err)
	}
	// ImportMRT infers the End from the last record; churn dwell
	// accounting needs the true window.
	imported.End = st.End

	// Map original session indices to the imported (collector-local)
	// ones by peer AS in order.
	var origIdx []int
	for si := range st.Sessions {
		if st.Sessions[si].Collector == collector {
			origIdx = append(origIdx, si)
		}
	}
	if len(origIdx) != len(imported.Sessions) {
		t.Fatalf("session count mismatch: %d vs %d", len(origIdx), len(imported.Sessions))
	}

	for local, si := range origIdx {
		want := analysis.CountPathChanges(st, si, analysis.FilterHeuristic)
		got := analysis.CountPathChanges(imported, local, analysis.FilterHeuristic)
		// Compare over the prefixes present in the original count map.
		diffs := 0
		for p, n := range want {
			if got[p] != n {
				diffs++
				if diffs <= 3 {
					t.Logf("session %d prefix %v: archive count %d, in-memory %d",
						si, p, got[p], n)
				}
			}
		}
		if diffs > 0 {
			t.Fatalf("session %d: %d/%d prefixes disagree between archive and memory",
				si, diffs, len(want))
		}
	}

	// The Figure 3 (left) headline statistic survives the archive round
	// trip for this collector's sessions.
	tor := w.TorPrefixSet()
	ratiosMem, err := analysis.PathChangeRatios(st, tor, analysis.FilterHeuristic)
	if err != nil {
		t.Fatal(err)
	}
	ratiosArc, err := analysis.PathChangeRatios(imported, tor, analysis.FilterHeuristic)
	if err != nil {
		t.Fatal(err)
	}
	memBySession := make(map[int]map[netip.Prefix]float64)
	for _, r := range ratiosMem {
		if memBySession[r.Session] == nil {
			memBySession[r.Session] = make(map[netip.Prefix]float64)
		}
		memBySession[r.Session][r.Prefix] = r.Ratio
	}
	checked := 0
	for _, r := range ratiosArc {
		si := origIdx[r.Session]
		if wantRatio, ok := memBySession[si][r.Prefix]; ok {
			checked++
			if wantRatio != r.Ratio {
				t.Fatalf("ratio mismatch for %v on session %d: %.3f vs %.3f",
					r.Prefix, si, r.Ratio, wantRatio)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no comparable ratio samples")
	}
}

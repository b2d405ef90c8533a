package quicksand

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"net/netip"
	"testing"

	"quicksand/internal/analysis"
	"quicksand/internal/bgpsim"
)

// TestAnalysisFromMRTArchives proves the archive-grade path end to end:
// the simulated stream is exported to MRT files (one RIB snapshot and one
// update archive per collector, exactly what RIPE RIS publishes), read
// back, and the Figure 3 (left) analysis — with the burst reset
// heuristic, since the ground-truth Transfer flags do not survive the
// format — produces the same per-prefix change counts and ratios as the
// same heuristic applied to the in-memory stream.
func TestAnalysisFromMRTArchives(t *testing.T) {
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

	// Every prefix's change count and ratio, Tor or background, survive
	// the archive round trip for this collector's sessions.
	all := make(map[netip.Prefix]bool)
	for _, paths := range st.Initial {
		for p := range paths {
			all[p] = true
		}
	}
	for _, u := range st.Updates {
		all[u.Prefix] = true
	}
	ratiosMem, err := analysis.PathChangeRatios(st, all, analysis.FilterHeuristic)
	if err != nil {
		t.Fatal(err)
	}
	ratiosArc, err := analysis.PathChangeRatios(imported, all, analysis.FilterHeuristic)
	if err != nil {
		t.Fatal(err)
	}
	type sample struct {
		session int
		prefix  netip.Prefix
	}
	mem := make(map[sample]analysis.ChangeRatio)
	for _, r := range ratiosMem {
		if st.Sessions[r.Session].Collector == collector {
			mem[sample{r.Session, r.Prefix}] = r
		}
	}
	checked := 0
	for _, r := range ratiosArc {
		si := origIdx[r.Session]
		want, ok := mem[sample{si, r.Prefix}]
		if !ok || want.Changes != r.Changes || want.Ratio != r.Ratio {
			t.Fatalf("session %d prefix %v: archive %d changes (ratio %.3f), in-memory %+v",
				si, r.Prefix, r.Changes, r.Ratio, want)
		}
		checked++
	}
	if checked != len(mem) {
		t.Fatalf("archive has %d samples, memory %d", checked, len(mem))
	}
	if checked == 0 {
		t.Fatal("no comparable samples")
	}
}

// mrtExportDigest is the sha256 of ExportRIB then ExportUpdates for each
// collector of the small seed-1 month, in session order, pinned before
// the writer reused its buffers: a byte the archive format moves shows
// here.
const mrtExportDigest = "62fadb5487ecf8c49ca79019adfcc680c39f0f78f1913514edb887e4982c4d7d"

func TestMRTExportDigest(t *testing.T) {
	st := smallStream(t)
	h := sha256.New()
	done := make(map[string]bool)
	for _, s := range st.Sessions {
		if done[s.Collector] {
			continue
		}
		done[s.Collector] = true
		if err := st.ExportRIB(h, s.Collector); err != nil {
			t.Fatal(err)
		}
		if err := st.ExportUpdates(h, s.Collector); err != nil {
			t.Fatal(err)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != mrtExportDigest {
		t.Fatalf("MRT export digest = %s, want %s", got, mrtExportDigest)
	}
}

package quicksand

import (
	"testing"
	"time"

	"quicksand/internal/analysis"
	"quicksand/internal/bgpsim"
	"quicksand/internal/tcpsim"
)

// cachedWorld/cachedStream cache the small world and its simulated month
// across integration tests; building them is the expensive part and every
// consumer treats them as read-only.
var (
	cachedWorld  *World
	cachedStream *bgpsim.Stream
)

// smallStream simulates (once) the shortened month over the small world.
func smallStream(t testing.TB) *bgpsim.Stream {
	t.Helper()
	if cachedStream != nil {
		return cachedStream
	}
	st, err := smallWorld(t).SimulateMonth(SmallMonthConfig())
	if err != nil {
		t.Fatal(err)
	}
	cachedStream = st
	return st
}

func smallWorld(t testing.TB) *World {
	t.Helper()
	if cachedWorld != nil {
		return cachedWorld
	}
	w, err := BuildWorld(SmallWorldConfig())
	if err != nil {
		t.Fatal(err)
	}
	cachedWorld = w
	return w
}

func TestBuildWorldShape(t *testing.T) {
	w := smallWorld(t)
	cfg := SmallWorldConfig()
	if got := len(w.Consensus.Relays); got != cfg.Consensus.Total {
		t.Fatalf("relays = %d, want %d", got, cfg.Consensus.Total)
	}
	if len(w.TorPrefixes) != cfg.Consensus.GuardExitPrefixes {
		t.Fatalf("tor prefixes = %d, want %d", len(w.TorPrefixes), cfg.Consensus.GuardExitPrefixes)
	}
	// Origins include background prefixes beyond the hosting ones.
	if len(w.Origins) <= len(w.Hosting.Prefixes) {
		t.Fatalf("origins = %d, hosting = %d; background prefixes missing",
			len(w.Origins), len(w.Hosting.Prefixes))
	}
	// Every origin AS exists in the topology.
	for p, asn := range w.Origins {
		if w.Topology.AS(asn) == nil {
			t.Fatalf("origin %v of %v missing from topology", asn, p)
		}
	}
	// Hosting-derived relay->prefix mapping agrees with the independent
	// longest-prefix-match pipeline.
	for i := range w.Consensus.Relays {
		r := &w.Consensus.Relays[i]
		want, ok := w.Hosting.RelayPrefix[r.Addr]
		if !ok {
			t.Fatalf("relay %v missing from hosting plan", r.Addr)
		}
		got, _, ok := w.RIB.LongestMatch(r.Addr)
		if !ok || got != want {
			t.Fatalf("relay %v: LPM %v (ok=%v), hosting says %v", r.Addr, got, ok, want)
		}
	}
}

func TestBuildWorldDeterministic(t *testing.T) {
	a, err := BuildWorld(SmallWorldConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildWorld(SmallWorldConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Origins) != len(b.Origins) {
		t.Fatal("nondeterministic origin tables")
	}
	for p, asn := range a.Origins {
		if b.Origins[p] != asn {
			t.Fatalf("origin of %v differs: %v vs %v", p, asn, b.Origins[p])
		}
	}
}

func TestRunFig2Left(t *testing.T) {
	w := smallWorld(t)
	curve, ranking, err := w.RunFig2Left()
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) == 0 || len(ranking) == 0 {
		t.Fatal("empty results")
	}
	// Concentration: a handful of ASes host a disproportionate share.
	k := 5
	if k > len(curve) {
		k = len(curve)
	}
	topShare := curve[k-1].PercentRelays
	uniform := 100 * float64(k) / float64(len(ranking))
	if topShare <= uniform {
		t.Fatalf("top-%d share %.1f%% not above uniform %.1f%%", k, topShare, uniform)
	}
	if last := curve[len(curve)-1].PercentRelays; last < 99.999 {
		t.Fatalf("curve does not reach 100%%: %v", last)
	}
}

func TestRunFig2Right(t *testing.T) {
	cfg := tcpsim.DefaultConfig()
	cfg.FileSize = 2 << 20
	res, err := RunFig2Right(cfg, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Correlations) != 4 {
		t.Fatalf("correlations = %v", res.Correlations)
	}
	for name, r := range res.Correlations {
		if r < 0.55 {
			t.Fatalf("%s correlation %.3f too low", name, r)
		}
	}
	// Totals agree within cell overhead.
	se := res.Series.ServerToExit.Total()
	cg := res.Series.ClientToGuard.Total()
	if cg < se || cg > se*1.1 {
		t.Fatalf("totals diverge: server %v client %v", se, cg)
	}
}

func TestRunFig2RightTooShort(t *testing.T) {
	cfg := tcpsim.DefaultConfig()
	cfg.FileSize = 64 << 10
	if _, err := RunFig2Right(cfg, 10*time.Second); err == nil {
		t.Fatal("oversized bin accepted")
	}
}

func TestRunAnonymityModel(t *testing.T) {
	cells := RunAnonymityModel([]float64{0.01, 0.05}, []int{1, 4, 10}, 3)
	if len(cells) != 6 {
		t.Fatalf("cells = %d", len(cells))
	}
	for _, c := range cells {
		if c.MultiGuard < c.Single {
			t.Fatalf("multi-guard %v < single %v at f=%v x=%d", c.MultiGuard, c.Single, c.F, c.X)
		}
	}
	// Exponential growth in x.
	if !(cells[0].Single < cells[1].Single && cells[1].Single < cells[2].Single) {
		t.Fatal("not increasing in x")
	}
}

func TestRunHijackStudy(t *testing.T) {
	w := smallWorld(t)
	cfg := DefaultHijackStudyConfig()
	cfg.Attackers = 8
	cfg.TopPrefixes = 3
	cfg.ClientASes = 40
	res, err := w.RunHijackStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trials == 0 {
		t.Fatal("no trials")
	}
	if res.CaptureFraction.Mean <= 0 || res.CaptureFraction.Mean >= 1 {
		t.Fatalf("mean capture fraction %v", res.CaptureFraction.Mean)
	}
	// Anonymity set shrinks to roughly the capture fraction.
	if res.AnonymitySetFraction.Mean <= 0 || res.AnonymitySetFraction.Mean >= 1 {
		t.Fatalf("anonymity set fraction %v", res.AnonymitySetFraction.Mean)
	}
	if res.MoreSpecificCapture < 0.999 {
		t.Fatalf("more-specific capture %v, want ~1", res.MoreSpecificCapture)
	}
	// Top guard prefixes carry a meaningful share of traffic.
	if res.Surveillance.GuardShare <= 0 {
		t.Fatalf("surveillance guard share %v", res.Surveillance.GuardShare)
	}
	if _, err := w.RunHijackStudy(HijackStudyConfig{}); err == nil {
		t.Fatal("zero config accepted")
	}
}

func TestRunInterceptStudy(t *testing.T) {
	w := smallWorld(t)
	cfg := DefaultInterceptStudyConfig()
	cfg.Trials = 6
	cfg.Decoys = 3
	cfg.FileSize = 1 << 20
	res, err := w.RunInterceptStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trials == 0 {
		t.Fatal("no trials ran")
	}
	if res.Effective > 0 {
		if res.DeanonTrials != res.Effective {
			t.Fatalf("deanon trials %d != effective %d", res.DeanonTrials, res.Effective)
		}
		if res.DeanonAccuracy() < 0.5 {
			t.Fatalf("deanonymization accuracy %.2f too low", res.DeanonAccuracy())
		}
	}
	if _, err := w.RunInterceptStudy(InterceptStudyConfig{}); err == nil {
		t.Fatal("zero config accepted")
	}
}

// TestDatasetBitIdentical pins that the dataset statistics do not depend
// on map iteration order: the per-prefix samples are sorted before they
// are summed, so repeated runs agree to the last bit.
func TestDatasetBitIdentical(t *testing.T) {
	w := smallWorld(t)
	st := smallStream(t)
	first, err := w.RunDataset(st)
	if err != nil {
		t.Fatal(err)
	}
	for run := 1; run < 20; run++ {
		ds, err := w.RunDataset(st)
		if err != nil {
			t.Fatal(err)
		}
		if ds != first {
			t.Fatalf("run %d differs from run 0:\n%+v\n%+v", run, ds, first)
		}
	}
}

// TestMonthPipeline runs the full measurement pipeline end to end on the
// small world: simulate a (shortened) month, then produce E1, F3L, F3R
// and E5.
func TestMonthPipeline(t *testing.T) {
	w := smallWorld(t)
	st := smallStream(t)

	ds, err := w.RunDataset(st)
	if err != nil {
		t.Fatal(err)
	}
	if ds.TorPrefixes == 0 || ds.OriginASes == 0 {
		t.Fatalf("dataset: %+v", ds)
	}
	if ds.MeanPrefixVisibility <= 0 || ds.MeanPrefixVisibility > 1 {
		t.Fatalf("visibility: %v", ds.MeanPrefixVisibility)
	}

	f3l, err := w.RunFig3Left(st, analysis.FilterGroundTruth)
	if err != nil {
		t.Fatal(err)
	}
	if len(f3l.Ratios) == 0 || len(f3l.CCDF) == 0 {
		t.Fatal("empty F3L")
	}
	// Relay prefixes attract biased churn: a meaningful share of samples
	// must exceed the session median.
	if f3l.FractionAboveMedian < 0.2 {
		t.Fatalf("fraction above median = %.3f, want >= 0.2", f3l.FractionAboveMedian)
	}
	// Heavy tail from flap episodes.
	if f3l.MaxRatio < 5 {
		t.Fatalf("max ratio = %.1f, want a churn tail", f3l.MaxRatio)
	}

	f3r, err := w.RunFig3Right(st, 5*time.Minute, analysis.FilterGroundTruth)
	if err != nil {
		t.Fatal(err)
	}
	if len(f3r.Counts) == 0 {
		t.Fatal("empty F3R")
	}
	if f3r.FractionAtLeast2 <= 0 {
		t.Fatalf("no prefix gained 2 extra ASes: %+v", f3r)
	}

	// Heuristic reset filtering should approximate ground truth.
	f3lH, err := w.RunFig3Left(st, analysis.FilterHeuristic)
	if err != nil {
		t.Fatal(err)
	}
	if len(f3lH.Ratios) == 0 {
		t.Fatal("heuristic filter produced no samples")
	}

	def, err := w.RunDefenseStudy(st, DefaultDefenseStudyConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Dynamics-aware judgement is at least as pessimistic as static.
	if def.UnsafeVanillaDynamics < def.UnsafeVanillaStatic {
		t.Fatalf("dynamics unsafe %.3f < static %.3f",
			def.UnsafeVanillaDynamics, def.UnsafeVanillaStatic)
	}
	// No false negatives on injected attacks.
	if def.HijacksInjected == 0 || def.HijacksDetected != def.HijacksInjected {
		t.Fatalf("hijack detection %d/%d", def.HijacksDetected, def.HijacksInjected)
	}
	if def.MoreSpecificsCaught != def.HijacksInjected {
		t.Fatalf("more-specific detection %d/%d", def.MoreSpecificsCaught, def.HijacksInjected)
	}
	if _, err := w.RunDefenseStudy(st, DefenseStudyConfig{}); err == nil {
		t.Fatal("zero config accepted")
	}
}

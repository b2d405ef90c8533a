package quicksand

import (
	"net/netip"
	"reflect"
	"testing"
	"time"

	"quicksand/internal/analysis"
	"quicksand/internal/bgp"
	"quicksand/internal/bgpsim"
	"quicksand/internal/tcpsim"
	"quicksand/internal/torconsensus"
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

// TestScaleConfigs pins the one -scale/-seed table: each scale's world,
// month and study settings, the root seed in every seed field, and an
// error for any other name.
func TestScaleConfigs(t *testing.T) {
	detectSmall := DefaultLiveDetectionConfig().Month
	detectPaper := bgpsim.DefaultConfig()
	detectPaper.Duration /= 4
	for _, tc := range []struct {
		scale       string
		world       WorldConfig
		month       bgpsim.Config
		download    int // F2R bytes
		trials      int // E4
		clients     int // E7
		detectMonth bgpsim.Config
		attacks     int // E9
		budget      int // E10 attackers per guard; 0 = exact
	}{
		{"small", SmallWorldConfig(), SmallMonthConfig(), 4 << 20, 10, 150, detectSmall, 12, 0},
		{"paper", DefaultWorldConfig(), bgpsim.DefaultConfig(), 40 << 20, 15, 300, detectPaper, 25, 200},
	} {
		s, err := ScaleConfigs(tc.scale, 7)
		if err != nil {
			t.Fatalf("%s: %v", tc.scale, err)
		}
		seeds := []*int64{&s.World.Seed, &s.World.Topology.Seed, &s.World.Consensus.Seed, &s.Month.Seed,
			&s.Download.Seed, &s.Intercept.Seed, &s.Rotation.Seed, &s.Detection.Seed,
			&s.Detection.Month.Seed, &s.Resilience.Seed}
		for i, p := range seeds {
			if *p != 7 {
				t.Errorf("%s: seed field %d = %d, want 7", tc.scale, i, *p)
			}
		}
		// Reset the seeds to the presets' and compare each config with
		// its preset plus the pinned per-scale values.
		want := Scale{
			World: tc.world, Month: tc.month, Download: tcpsim.DefaultConfig(),
			Intercept: DefaultInterceptStudyConfig(), Rotation: DefaultRotationStudyConfig(),
			Detection: DefaultLiveDetectionConfig(), Resilience: DefaultResilienceStudyConfig(),
		}
		wantSeeds := []int64{want.World.Seed, want.World.Topology.Seed, want.World.Consensus.Seed, want.Month.Seed,
			want.Download.Seed, want.Intercept.Seed, want.Rotation.Seed, want.Detection.Seed,
			tc.detectMonth.Seed, want.Resilience.Seed}
		for i, p := range seeds {
			*p = wantSeeds[i]
		}
		want.Download.FileSize = tc.download
		want.Intercept.Trials = tc.trials
		want.Rotation.Clients = tc.clients
		want.Detection.Month, want.Detection.Attacks = tc.detectMonth, tc.attacks
		want.Resilience.AttackerBudget = tc.budget
		if !reflect.DeepEqual(s, want) {
			t.Errorf("%s: configs differ from the scale's presets beyond the seeds:\n got %+v\nwant %+v", tc.scale, s, want)
		}
	}
	if _, err := ScaleConfigs("huge", 1); err == nil || err.Error() != `unknown scale "huge"` {
		t.Errorf("ScaleConfigs(huge) = %v, want unknown scale", err)
	}
}

// TestTorPrefixViews checks the world's two views of its Tor prefixes:
// the watchlist maps each to its Origins value, and the sorted list holds
// each once, by address, then length.
func TestTorPrefixViews(t *testing.T) {
	w := smallWorld(t)
	watch := w.TorWatchlist()
	if len(watch) != len(w.TorPrefixes) {
		t.Fatalf("watchlist has %d entries for %d Tor prefixes", len(watch), len(w.TorPrefixes))
	}
	for p := range w.TorPrefixes {
		if asn, ok := watch[p]; !ok || asn != w.Origins[p] {
			t.Errorf("watchlist[%v] = %v, %v; want %v", p, asn, ok, w.Origins[p])
		}
	}
	list := w.SortedTorPrefixes()
	if len(list) != len(w.TorPrefixes) {
		t.Fatalf("sorted list has %d entries for %d Tor prefixes", len(list), len(w.TorPrefixes))
	}
	for i, p := range list {
		if w.TorPrefixes[p] == nil {
			t.Errorf("sorted list holds %v, not a Tor prefix", p)
		}
		if i == 0 {
			continue
		}
		prev := list[i-1]
		if c := prev.Addr().Compare(p.Addr()); c > 0 || c == 0 && prev.Bits() >= p.Bits() {
			t.Errorf("sorted list has %v before %v", prev, p)
		}
	}
}

// TestGuardPrefixesTieBreak pins the order of guard prefixes with equal
// bandwidth that share an address: by length, as bgp.ComparePrefix
// orders them, whatever order the bandwidth map yields them in.
func TestGuardPrefixesTieBreak(t *testing.T) {
	wide, narrow := netip.MustParsePrefix("10.0.0.0/16"), netip.MustParsePrefix("10.0.0.0/24")
	rib, err := analysis.BuildRIB(map[netip.Prefix]bgp.ASN{wide: 1, narrow: 2})
	if err != nil {
		t.Fatal(err)
	}
	guard := torconsensus.FlagGuard | torconsensus.FlagRunning | torconsensus.FlagValid
	w := &World{RIB: rib, Consensus: &torconsensus.Consensus{Relays: []torconsensus.Relay{
		{Addr: netip.MustParseAddr("10.0.0.1"), Flags: guard, Bandwidth: 100}, // in narrow
		{Addr: netip.MustParseAddr("10.0.5.1"), Flags: guard, Bandwidth: 100}, // in wide only
	}}}
	for range 20 {
		if got := w.guardPrefixesByBandwidth(); !reflect.DeepEqual(got, []netip.Prefix{wide, narrow}) {
			t.Fatalf("order %v, want %v before %v", got, wide, narrow)
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
	se := res.Series.ServerToExit.Cum[len(res.Series.ServerToExit.Cum)-1]
	cg := res.Series.ClientToGuard.Cum[len(res.Series.ClientToGuard.Cum)-1]
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
}

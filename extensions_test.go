package quicksand

import (
	"testing"
	"time"

	"quicksand/internal/analysis"
)

func TestRunConvergence(t *testing.T) {
	w := smallWorld(t)
	st := smallStream(t)
	res, err := w.RunConvergence(st, 5*time.Minute, analysis.FilterGroundTruth)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Transients) == 0 || len(res.CCDF) == 0 {
		t.Fatal("empty convergence result")
	}
	if res.FractionWithAny < 0 || res.FractionWithAny > 1 {
		t.Fatalf("fraction = %v", res.FractionWithAny)
	}
	// Flap episodes are short-cycled, so transient observers must exist.
	if res.FractionWithAny == 0 {
		t.Fatal("no transient observers despite convergence exploration")
	}
	// Transient counts are disjoint from the >=5min extras: an AS seen
	// 10 hours is not transient. Sanity: mean transient per sample is
	// finite and modest.
	if res.MeanTransient < 0 || res.MeanTransient > 50 {
		t.Fatalf("mean transient = %v", res.MeanTransient)
	}
}

func TestRunRotationStudy(t *testing.T) {
	w := smallWorld(t)
	cfg := DefaultRotationStudyConfig()
	cfg.Clients = 120
	cfg.Months = 12
	cfg.F = 0.03
	res, err := w.RunRotationStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curves) != 2 {
		t.Fatalf("curves = %d", len(res.Curves))
	}
	final := make(map[int]float64) // lifetime in months → end-of-horizon fraction
	for _, c := range res.Curves {
		if len(c.CompromisedFrac) != cfg.Months {
			t.Fatalf("curve length = %d", len(c.CompromisedFrac))
		}
		// Monotone non-decreasing (compromise is absorbing).
		for m := 1; m < len(c.CompromisedFrac); m++ {
			if c.CompromisedFrac[m] < c.CompromisedFrac[m-1] {
				t.Fatalf("lifetime %d: curve decreases at month %d", c.LifetimeMonths, m)
			}
		}
		// Something must be compromised by the horizon with f=0.03.
		final[c.LifetimeMonths] = c.CompromisedFrac[len(c.CompromisedFrac)-1]
		if final[c.LifetimeMonths] <= 0 {
			t.Fatalf("lifetime %d: nobody compromised", c.LifetimeMonths)
		}
	}
	// Faster rotation exposes clients to more distinct guards/paths:
	// the 1-month curve should not end below the 9-month curve by a
	// wide margin (usually it ends above).
	if final[1]+0.15 < final[9] {
		t.Fatalf("1-month %.2f far below 9-month %.2f", final[1], final[9])
	}
}

func TestRunLiveDetection(t *testing.T) {
	w := smallWorld(t)
	cfg := DefaultLiveDetectionConfig()
	cfg.Attacks = 8
	res, err := w.RunLiveDetection(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Attacks == 0 {
		t.Fatal("no attacks injected")
	}
	if res.Visible == 0 {
		t.Skip("no attack was visible from the vantage set for this seed")
	}
	// §5: no false negatives among visible attacks.
	if res.Detected != res.Visible {
		t.Fatalf("detected %d of %d visible attacks", res.Detected, res.Visible)
	}
	// Detection should happen within the attack window plus convergence.
	if res.MeanLatency < 0 || res.MeanLatency > liveAttackDuration+5*time.Minute {
		t.Fatalf("mean latency %v implausible", res.MeanLatency)
	}
	if res.ObservedUpdates == 0 {
		t.Fatal("monitor observed nothing")
	}
	if _, err := w.RunLiveDetection(LiveDetectionConfig{}); err == nil {
		t.Fatal("zero config accepted")
	}
}

func TestDefaultWorldConfigSane(t *testing.T) {
	cfg := DefaultWorldConfig()
	if cfg.Consensus.Total != 4586 || cfg.Consensus.GuardExitPrefixes != 1251 {
		t.Fatalf("paper population wrong: %+v", cfg.Consensus)
	}
	if cfg.BackgroundPrefixes < 1000 {
		t.Fatalf("background prefixes = %d", cfg.BackgroundPrefixes)
	}
	if cfg.Topology.Tier1 < 1 || cfg.Topology.Tier3 < cfg.Consensus.NumHostASes {
		t.Fatalf("topology cannot host the relay ASes: %+v", cfg.Topology)
	}
}

func TestExtraSamples(t *testing.T) {
	w := smallWorld(t)
	st := smallStream(t)
	f3r, err := w.RunFig3Right(st, 5*time.Minute, analysis.FilterGroundTruth)
	if err != nil {
		t.Fatal(err)
	}
	samples := f3r.ExtraSamples()
	if len(samples) != len(f3r.Counts) {
		t.Fatalf("samples = %d, counts = %d", len(samples), len(f3r.Counts))
	}
	for i, s := range samples {
		if s != f3r.Counts[i].Extra {
			t.Fatalf("sample %d mismatch", i)
		}
	}
	// And they are usable as the rotation model's input.
	cfg := DefaultRotationStudyConfig()
	cfg.Clients = 30
	cfg.Months = 4
	cfg.ExtraASesPerMonth = samples
	if _, err := w.RunRotationStudy(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestRunFilterAblation(t *testing.T) {
	w := smallWorld(t)
	st := smallStream(t)
	res, err := w.RunFilterAblation(st)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byName := map[string]FilterAblationRow{}
	for _, r := range res.Rows {
		byName[r.Name] = r
		if r.Samples == 0 {
			t.Fatalf("%s: no samples", r.Name)
		}
	}
	// The heuristic must track ground truth closely on the headline
	// statistic. (Unfiltered can coincide with ground truth when every
	// transfer re-announced unchanged paths — duplicates are not path
	// changes — while the heuristic may also swallow genuine global
	// bursts like policy events; a small deviation is the price of
	// working on real archives.)
	gt := byName["ground-truth"].FractionAboveMedian
	he := byName["heuristic"].FractionAboveMedian
	if devH := abs(he - gt); devH > 0.05 {
		t.Fatalf("heuristic deviation %.4f from ground truth exceeds 0.05", devH)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestRunROVStudy(t *testing.T) {
	w := smallWorld(t)
	cfg := DefaultROVStudyConfig()
	cfg.Attackers = 8
	res, err := w.RunROVStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != len(cfg.Deployments) {
		t.Fatalf("points = %d", len(res.Points))
	}
	// Capture shrinks (weakly) as deployment grows, and full deployment
	// protects the victim almost entirely.
	for i := 1; i < len(res.Points); i++ {
		if res.Points[i].MeanCapture > res.Points[i-1].MeanCapture+0.02 {
			t.Fatalf("capture rose with deployment: %+v", res.Points)
		}
	}
	first, last := res.Points[0], res.Points[len(res.Points)-1]
	if first.MeanCapture <= 0.05 {
		t.Fatalf("undefended capture %.3f suspiciously low", first.MeanCapture)
	}
	if last.MeanCapture > 0.01 || last.VictimProtected < 0.99 {
		t.Fatalf("full ROV deployment still leaks: %+v", last)
	}
}

func TestRunROVStudyValidation(t *testing.T) {
	w := smallWorld(t)
	bad := DefaultROVStudyConfig()
	bad.Attackers = 0
	if _, err := w.RunROVStudy(bad); err == nil {
		t.Fatal("zero attackers accepted")
	}
	bad = DefaultROVStudyConfig()
	bad.Deployments = []float64{2}
	if _, err := w.RunROVStudy(bad); err == nil {
		t.Fatal("deployment > 1 accepted")
	}
}

func TestRunRotationStudyWithEvolution(t *testing.T) {
	w := smallWorld(t)
	cfg := DefaultRotationStudyConfig()
	cfg.Clients = 80
	cfg.Months = 10
	cfg.F = 0.03
	cfg.EvolveMonthly = true
	res, err := w.RunRotationStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Curves {
		for m := 1; m < len(c.CompromisedFrac); m++ {
			if c.CompromisedFrac[m] < c.CompromisedFrac[m-1] {
				t.Fatalf("lifetime %d: curve decreases under evolution", c.LifetimeMonths)
			}
		}
		if c.CompromisedFrac[len(c.CompromisedFrac)-1] <= 0 {
			t.Fatalf("lifetime %d: nobody compromised", c.LifetimeMonths)
		}
	}
	// The world's hosting plan must remain untouched by the study's
	// internal evolution.
	if len(w.Hosting.RelayPrefix) != len(w.Consensus.Relays) {
		t.Fatal("study evolution leaked into the world's hosting plan")
	}
}

func TestRunRotationStudyValidation(t *testing.T) {
	w := smallWorld(t)
	bad := DefaultRotationStudyConfig()
	bad.Clients = 0
	if _, err := w.RunRotationStudy(bad); err == nil {
		t.Fatal("zero clients accepted")
	}
	bad = DefaultRotationStudyConfig()
	bad.F = 0
	if _, err := w.RunRotationStudy(bad); err == nil {
		t.Fatal("f=0 accepted")
	}
	bad = DefaultRotationStudyConfig()
	bad.Lifetimes = []int{0}
	if _, err := w.RunRotationStudy(bad); err == nil {
		t.Fatal("zero lifetime accepted")
	}
}

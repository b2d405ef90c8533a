package quicksand

import (
	"math"
	"testing"
)

// studyConfig is a reduced E10 configuration matched to the small
// world; exact matrix, enough clients for the mean-capture ordering to
// be stable.
func studyConfig() ResilienceStudyConfig {
	cfg := DefaultResilienceStudyConfig()
	cfg.Clients = 40
	cfg.HijackTrials = 20
	cfg.Alphas = []float64{0.5, 1.0}
	return cfg
}

func TestResilienceStudySmall(t *testing.T) {
	w := smallWorld(t)
	res, err := w.RunResilienceStudy(studyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.GuardASes == 0 || res.Clients != 40 {
		t.Fatalf("shape: %+v", res)
	}
	if res.ErrorBound != 0 || res.AttackersPerGuard != w.Topology.Len()-1 {
		t.Fatalf("exact matrix expected: bound %v, attackers %d", res.ErrorBound, res.AttackersPerGuard)
	}
	if res.MatrixPairs != res.GuardASes*w.Topology.Len() {
		t.Fatalf("pairs = %d", res.MatrixPairs)
	}
	if len(res.Resilience) != 2 {
		t.Fatalf("arms = %d", len(res.Resilience))
	}

	// The tentpole claim: resilience weighting strictly lowers the
	// analytic capture probability versus vanilla bandwidth weighting,
	// at every alpha in the sweep.
	for _, arm := range res.Resilience {
		if arm.MeanCapture >= res.Vanilla.MeanCapture {
			t.Errorf("%s capture %.4f not below vanilla %.4f",
				arm.Name, arm.MeanCapture, res.Vanilla.MeanCapture)
		}
	}
	// Full resilience weighting (a=1) should beat the blended arm.
	if res.Resilience[1].MeanCapture > res.Resilience[0].MeanCapture+1e-9 {
		t.Errorf("a=1.0 capture %.4f above a=0.5 capture %.4f",
			res.Resilience[1].MeanCapture, res.Resilience[0].MeanCapture)
	}
	for _, arm := range append([]ResilienceArm{res.Vanilla, res.ShortPath}, res.Resilience...) {
		if arm.MeanCapture < 0 || arm.MeanCapture > 1 ||
			arm.EmpiricalCapture < 0 || arm.EmpiricalCapture > 1 ||
			arm.AnonymitySetFraction < 0 || arm.AnonymitySetFraction > 1 {
			t.Errorf("%s out of range: %+v", arm.Name, arm)
		}
	}
}

// TestResilienceStudyWorkerInvariance pins the determinism contract:
// identical results at any worker count (the matrix seeds per guard,
// the study seeds per client and per trial).
func TestResilienceStudyWorkerInvariance(t *testing.T) {
	w := smallWorld(t)
	cfg := studyConfig()
	cfg.Clients = 15
	cfg.HijackTrials = 8
	cfg.Alphas = []float64{1.0}
	cfg.Workers = 1
	a, err := w.RunResilienceStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 5
	b, err := w.RunResilienceStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pairs := [][2]ResilienceArm{
		{a.Vanilla, b.Vanilla},
		{a.ShortPath, b.ShortPath},
		{a.Resilience[0], b.Resilience[0]},
	}
	for _, p := range pairs {
		if p[0].MeanCapture != p[1].MeanCapture ||
			p[0].EmpiricalCapture != p[1].EmpiricalCapture ||
			math.Abs(p[0].AnonymitySetFraction-p[1].AnonymitySetFraction) > 1e-12 {
			t.Fatalf("worker counts disagree: %+v vs %+v", p[0], p[1])
		}
	}
}

func TestResilienceStudyValidation(t *testing.T) {
	w := smallWorld(t)
	cfg := studyConfig()
	cfg.Alphas = []float64{1.5}
	if _, err := w.RunResilienceStudy(cfg); err == nil {
		t.Error("alpha 1.5 accepted")
	}
	cfg = studyConfig()
	cfg.Clients = 0
	if _, err := w.RunResilienceStudy(cfg); err == nil {
		t.Error("zero clients accepted")
	}
}

// TestResilPaperCaptureMargin is the Counter-RAPTOR claim at the scale
// the paper's numbers are quoted at, on the config `quicksand -scale
// paper resilience` runs: with the 200-attacker budget per guard,
// resilience weighting must strictly lower the analytic capture
// probability against vanilla bandwidth weighting at every alpha.
func TestResilPaperCaptureMargin(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping paper-scale gate in -short mode")
	}
	if raceEnabled {
		t.Skip("skipping paper-scale gate under -race")
	}
	s, err := ScaleConfigs("paper", 1)
	if err != nil {
		t.Fatal(err)
	}
	w, err := BuildWorld(s.World)
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.RunResilienceStudy(s.Resilience)
	if err != nil {
		t.Fatal(err)
	}
	if n := w.Topology.Len(); n < 1000 || res.ErrorBound <= 0 {
		t.Fatalf("not the sampled paper-scale run: %d ASes, bound %v", n, res.ErrorBound)
	}
	if m := res.CaptureMargin(); m <= 0 {
		t.Errorf("capture margin %.4f, want > 0", m)
	}
}

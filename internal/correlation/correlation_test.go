package correlation

import (
	"testing"
	"time"

	"quicksand/internal/tcpsim"
)

func smallTraces(t testing.TB, seed int64) (*tcpsim.Traces, tcpsim.Config) {
	t.Helper()
	cfg := tcpsim.DefaultConfig()
	cfg.FileSize = 2 << 20
	cfg.Seed = seed
	tr, err := tcpsim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr, cfg
}

func grid(cfg tcpsim.Config, tr *tcpsim.Traces) (time.Time, time.Duration, int) {
	bin := 100 * time.Millisecond
	n := int(tr.Finished.Sub(cfg.Start)/bin) + 2
	return cfg.Start, bin, n
}

func TestFromTracesAllFourSegments(t *testing.T) {
	tr, cfg := smallTraces(t, 1)
	start, bin, n := grid(cfg, tr)
	ss, err := FromTraces(tr, start, bin, n)
	if err != nil {
		t.Fatal(err)
	}
	// All four totals within a few percent of the file size (the client
	// side carries cell overhead).
	f := float64(cfg.FileSize)
	for name, s := range map[string]Series{
		"server_to_exit": ss.ServerToExit, "exit_to_server": ss.ExitToServer,
		"guard_to_client": ss.GuardToClient, "client_to_guard": ss.ClientToGuard,
	} {
		if total(s) < f*0.99 || total(s) > f*1.10 {
			t.Fatalf("%s total = %.0f, file = %.0f", name, total(s), f)
		}
		// Cumulative series must be non-decreasing.
		for i := 1; i < len(s.Cum); i++ {
			if s.Cum[i] < s.Cum[i-1] {
				t.Fatalf("%s: cumulative series decreases at bin %d", name, i)
			}
		}
	}
}

// The paper's Figure 2 (right) claim: the four segment series are nearly
// identical across time, so observing any direction at each end suffices.
func TestFourSegmentsNearlyIdentical(t *testing.T) {
	tr, cfg := smallTraces(t, 2)
	start, bin, n := grid(cfg, tr)
	ss, err := FromTraces(tr, start, bin, n)
	if err != nil {
		t.Fatal(err)
	}
	maxLag := int(cfg.CircuitDelay/bin) + 3
	pairs := []struct {
		name string
		a, b Series
		min  float64
	}{
		{"data/data", ss.ServerToExit, ss.GuardToClient, 0.7},
		{"data/ack same end", ss.ServerToExit, ss.ExitToServer, 0.7},
		{"asymmetric: server data vs client acks", ss.ServerToExit, ss.ClientToGuard, 0.6},
		{"extreme: acks only, both ends", ss.ExitToServer, ss.ClientToGuard, 0.6},
	}
	for _, p := range pairs {
		r, _, err := Correlate(p.a, p.b, maxLag)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if r < p.min {
			t.Fatalf("%s: correlation %.4f < %.2f", p.name, r, p.min)
		}
	}
	// The cumulative curves are "nearly identical" in the figure's
	// sense: totals agree within the cell overhead.
	if d := total(ss.GuardToClient) - total(ss.ServerToExit); d < 0 || d > total(ss.ServerToExit)*0.08 {
		t.Fatalf("cumulative totals diverge: %v vs %v", total(ss.GuardToClient), total(ss.ServerToExit))
	}
	_ = start
	_ = n
}

func TestCorrelateErrors(t *testing.T) {
	a := Series{Bin: time.Second, Cum: []float64{1, 2}}
	b := Series{Bin: 2 * time.Second, Cum: []float64{1, 2}}
	if _, _, err := Correlate(a, b, 0); err == nil {
		t.Fatal("bin mismatch accepted")
	}
	c := Series{Bin: time.Second, Cum: []float64{1, 2, 3}}
	if _, _, err := Correlate(a, c, 0); err == nil {
		t.Fatal("length mismatch accepted")
	}
	flat := Series{Bin: time.Second, Cum: []float64{1, 1}}
	flat2 := Series{Bin: time.Second, Cum: []float64{1, 2}}
	if _, _, err := Correlate(flat, flat2, 0); err == nil {
		t.Fatal("zero-variance series accepted")
	}
	long := Series{Bin: time.Second, Cum: []float64{1, 2, 3, 4}}
	long2 := Series{Bin: time.Second, Cum: []float64{2, 4, 5, 9}}
	if _, _, err := Correlate(long, long2, -1); err == nil {
		t.Fatal("negative maxLag accepted")
	}
	if _, _, err := Correlate(long, long2, 10); err == nil {
		t.Fatal("oversized maxLag accepted")
	}
}

func TestCorrelateFindsLag(t *testing.T) {
	// b is a copied, shifted to the right by 2 bins.
	a := Series{Bin: time.Second, Cum: []float64{5, 5, 30, 31, 80, 80, 92, 140, 141, 150}}
	bInc := []float64{0, 0, 5, 0, 25, 1, 49, 0, 12, 48}
	b := Series{Bin: time.Second, Cum: make([]float64, len(bInc))}
	cum := 0.0
	for i, v := range bInc {
		cum += v
		b.Cum[i] = cum
	}
	r, lag, err := Correlate(a, b, 3)
	if err != nil {
		t.Fatal(err)
	}
	if lag != 2 {
		t.Fatalf("lag = %d, want 2 (r=%.3f)", lag, r)
	}
	if r < 0.99 {
		t.Fatalf("r = %.4f, want ~1", r)
	}
	// Symmetric direction: negative lag.
	r2, lag2, err := Correlate(b, a, 3)
	if err != nil {
		t.Fatal(err)
	}
	if lag2 != -2 || r2 < 0.99 {
		t.Fatalf("reverse lag = %d r=%.3f", lag2, r2)
	}
}

func TestIncrementsAndTotal(t *testing.T) {
	s := Series{Cum: []float64{10, 30, 30, 70}}
	inc := s.Increments()
	want := []float64{10, 20, 0, 40}
	for i := range want {
		if inc[i] != want[i] {
			t.Fatalf("inc = %v", inc)
		}
	}
	sum := 0.0
	for _, v := range inc {
		sum += v
	}
	if sum != total(s) {
		t.Fatalf("increments sum to %v, total %v", sum, total(s))
	}
	var empty Series
	if empty.Increments() != nil {
		t.Fatal("empty series has increments")
	}
}

// total returns s's final cumulative byte count.
func total(s Series) float64 { return s.Cum[len(s.Cum)-1] }

func TestGridValidation(t *testing.T) {
	tr, cfg := smallTraces(t, 3)
	if _, err := DataSeries(tr.ServerToExit, cfg.Start, 0, 10); err == nil {
		t.Fatal("zero bin accepted")
	}
	if _, err := DataSeries(tr.ServerToExit, cfg.Start, time.Second, 1); err == nil {
		t.Fatal("single bin accepted")
	}
	if _, err := AckSeries(nil, cfg.Start, time.Second, 10); err != ErrNoPackets {
		t.Fatalf("empty capture: %v", err)
	}
	// A capture of pure ACKs has no data packets.
	if _, err := DataSeries(tr.ExitToServer, cfg.Start, time.Second, 10); err != ErrNoPackets {
		t.Fatalf("ack capture as data: %v", err)
	}
}

// MatchFlows must pick the true client among decoys running their own
// transfers — the deanonymization experiment.
func TestMatchFlowsFindsTrueClient(t *testing.T) {
	target, cfgT := smallTraces(t, 10)
	start, bin, n := grid(cfgT, target)
	serverSide, err := DataSeries(target.ServerToExit, start, bin, n)
	if err != nil {
		t.Fatal(err)
	}
	// Candidate 0 is the true client's ack stream; the rest are decoys
	// from independent transfers (different seeds => different loss and
	// timing patterns).
	candidates := make([]Series, 0, 6)
	cs, err := AckSeries(target.ClientToGuard, start, bin, n)
	if err != nil {
		t.Fatal(err)
	}
	candidates = append(candidates, cs)
	for seed := int64(20); seed < 25; seed++ {
		decoyCfg := tcpsim.DefaultConfig()
		decoyCfg.FileSize = 2 << 20
		decoyCfg.Seed = seed
		// Decoys start at staggered offsets with different rates.
		decoyCfg.Start = cfgT.Start.Add(time.Duration(seed%5) * 900 * time.Millisecond)
		decoyCfg.BottleneckBps = 900*1000 + int(seed)*77000
		decoy, err := tcpsim.Run(decoyCfg)
		if err != nil {
			t.Fatal(err)
		}
		ds, err := AckSeries(decoy.ClientToGuard, start, bin, n)
		if err != nil {
			t.Fatal(err)
		}
		candidates = append(candidates, ds)
	}
	maxLag := int(cfgT.CircuitDelay/bin) + 3
	res, err := MatchFlows(serverSide, candidates, maxLag)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best != 0 {
		t.Fatalf("matched candidate %d (scores %v), want 0", res.Best, res.Scores)
	}
	if res.Scores[0] < 0.5 {
		t.Fatalf("true client score %.4f < 0.5", res.Scores[0])
	}
	// The true client must beat every decoy by a clear margin.
	for i := 1; i < len(res.Scores); i++ {
		if res.Scores[i] > res.Scores[0]-0.1 {
			t.Fatalf("decoy %d score %.4f too close to true client %.4f",
				i, res.Scores[i], res.Scores[0])
		}
	}
}

func TestMatchFlowsErrors(t *testing.T) {
	if _, err := MatchFlows(Series{}, nil, 0); err == nil {
		t.Fatal("no candidates accepted")
	}
	// Candidates that all fail to correlate produce an error.
	tgt := Series{Bin: time.Second, Cum: []float64{1, 2, 3}}
	bad := Series{Bin: 2 * time.Second, Cum: []float64{1, 2, 3}}
	if _, err := MatchFlows(tgt, []Series{bad}, 0); err == nil {
		t.Fatal("uncorrelatable candidates accepted")
	}
}

func TestEarlyPacketsDiscarded(t *testing.T) {
	tr, cfg := smallTraces(t, 4)
	// Start the grid after the first second: earlier packets must be
	// dropped, not crash or clamp into bin 0.
	lateStart := cfg.Start.Add(time.Second)
	s, err := DataSeries(tr.ServerToExit, lateStart, 100*time.Millisecond, 50)
	if err != nil {
		t.Fatal(err)
	}
	full, err := DataSeries(tr.ServerToExit, cfg.Start, 100*time.Millisecond, 60)
	if err != nil {
		t.Fatal(err)
	}
	if total(s) >= total(full) {
		t.Fatalf("late grid total %v >= full total %v", total(s), total(full))
	}
}

func BenchmarkFromTraces(b *testing.B) {
	tr, cfg := smallTraces(b, 5)
	start, bin, n := grid(cfg, tr)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FromTraces(tr, start, bin, n); err != nil {
			b.Fatal(err)
		}
	}
}

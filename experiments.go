package quicksand

import (
	"cmp"
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"time"

	"quicksand/internal/analysis"
	"quicksand/internal/attacks"
	"quicksand/internal/bgp"
	"quicksand/internal/bgpsim"
	"quicksand/internal/correlation"
	"quicksand/internal/defense"
	"quicksand/internal/par"
	"quicksand/internal/stats"
	"quicksand/internal/tcpsim"
	"quicksand/internal/torconsensus"
	"quicksand/internal/torpath"
)

// --- trial sampling helpers shared by the parallel studies ---
//
// Every study fans its independent trials out over a par.Map pool and
// gives trial i its own RNG seeded par.TrialSeed(cfg.Seed, i), so the
// sampled trial set is a pure function of the study seed — identical
// for any worker count.

// sampleDistinctASNs draws n DISTINCT ASNs from pool (a partial
// Fisher-Yates over a copy), clamping n to the pool size. Sampling with
// replacement here would let duplicate client ASes skew the
// anonymity-set denominator.
func sampleDistinctASNs(rng *rand.Rand, pool []bgp.ASN, n int) []bgp.ASN {
	if n > len(pool) {
		n = len(pool)
	}
	s := append([]bgp.ASN(nil), pool...)
	for i := 0; i < n; i++ {
		j := i + rng.Intn(len(s)-i)
		s[i], s[j] = s[j], s[i]
	}
	return s[:n]
}

// sampleAttacker draws an AS distinct from victim, resampling on
// collision (bounded), then falling back to a linear scan from a random
// start so a valid attacker is always found when one exists. Skipping
// the trial on collision instead would silently shrink the study below
// its configured trial count.
func sampleAttacker(rng *rand.Rand, pool []bgp.ASN, victim bgp.ASN) (bgp.ASN, error) {
	if len(pool) == 0 {
		return 0, fmt.Errorf("quicksand: empty attacker pool")
	}
	for tries := 0; tries < 64; tries++ {
		if a := pool[rng.Intn(len(pool))]; a != victim {
			return a, nil
		}
	}
	start := rng.Intn(len(pool))
	for off := 0; off < len(pool); off++ {
		if a := pool[(start+off)%len(pool)]; a != victim {
			return a, nil
		}
	}
	return 0, fmt.Errorf("quicksand: no attacker AS distinct from %v", victim)
}

// --- E1: dataset / methodology statistics (§4) ---

// RunDataset computes the paper's methodology statistics over the world
// and (optionally) a simulated update stream for the per-session
// visibility numbers. Pass nil to skip the stream-derived fields.
func (w *World) RunDataset(st *bgpsim.Stream) (analysis.DatasetStats, error) {
	return analysis.Dataset(w.Consensus, w.RIB, st)
}

// --- F2L: AS concentration of guard/exit relays (Figure 2, left) ---

// RunFig2Left computes the cumulative concentration curve and the per-AS
// ranking behind it.
func (w *World) RunFig2Left() ([]analysis.ConcentrationPoint, []analysis.ASRelayCount, error) {
	return analysis.Concentration(w.Consensus, w.RIB)
}

// --- F2R: asymmetric traffic analysis feasibility (Figure 2, right) ---

// Fig2RightResult carries the four per-segment cumulative byte series and
// their pairwise correlations.
type Fig2RightResult struct {
	Series *correlation.SegmentSeries
	Bin    time.Duration
	// Correlations holds the lagged increment correlation for the four
	// pairings the paper's argument needs, keyed by a descriptive name.
	Correlations map[string]float64
	// Traces are the raw captures behind the series, exportable to
	// .pcap via tcpsim.WritePcap.
	Traces *tcpsim.Traces
}

// RunFig2Right simulates the paper's wide-area download (40 MB through a
// Tor circuit by default) and recovers the four byte-count series from
// header-only captures, plus their correlations.
func RunFig2Right(cfg tcpsim.Config, bin time.Duration) (*Fig2RightResult, error) {
	tr, err := tcpsim.Run(cfg)
	if err != nil {
		return nil, err
	}
	nbins := int(tr.Finished.Sub(cfg.Start)/bin) + 2
	ss, err := correlation.FromTraces(tr, cfg.Start, bin, nbins)
	if err != nil {
		return nil, err
	}
	maxLag := int(cfg.CircuitDelay/bin) + 3
	if maxLag >= nbins-1 {
		return nil, fmt.Errorf("quicksand: transfer too short for bin %v", bin)
	}
	res := &Fig2RightResult{Series: ss, Bin: bin, Correlations: make(map[string]float64), Traces: tr}
	pairs := []struct {
		name string
		a, b correlation.Series
	}{
		{"server_data~client_data", ss.ServerToExit, ss.GuardToClient},
		{"server_data~server_acks", ss.ServerToExit, ss.ExitToServer},
		{"server_data~client_acks", ss.ServerToExit, ss.ClientToGuard},
		{"server_acks~client_acks", ss.ExitToServer, ss.ClientToGuard},
	}
	for _, p := range pairs {
		r, _, err := correlation.Correlate(p.a, p.b, maxLag)
		if err != nil {
			return nil, fmt.Errorf("quicksand: %s: %w", p.name, err)
		}
		res.Correlations[p.name] = r
	}
	return res, nil
}

// --- F3L / F3R: churn analyses over a simulated month ---

// Fig3LeftResult bundles the Figure 3 (left) samples and CCDF.
type Fig3LeftResult struct {
	Ratios []analysis.ChangeRatio
	CCDF   []stats.CCDFPoint
	// FractionAboveMedian is the share of samples with ratio > 1 (the
	// paper reports >50%).
	FractionAboveMedian float64
	MaxRatio            float64
}

// RunFig3Left computes Tor-prefix path-change ratios over the stream.
func (w *World) RunFig3Left(st *bgpsim.Stream, filter analysis.ResetFilter) (*Fig3LeftResult, error) {
	ratios, err := analysis.PathChangeRatios(st, w.TorPrefixSet(), filter)
	if err != nil {
		return nil, err
	}
	ccdf, err := analysis.RatioCCDF(ratios)
	if err != nil {
		return nil, err
	}
	res := &Fig3LeftResult{Ratios: ratios, CCDF: ccdf}
	above := 0
	for _, r := range ratios {
		if r.Ratio > 1 {
			above++
		}
		if r.Ratio > res.MaxRatio {
			res.MaxRatio = r.Ratio
		}
	}
	res.FractionAboveMedian = float64(above) / float64(len(ratios))
	return res, nil
}

// Fig3RightResult bundles the Figure 3 (right) samples and CCDF.
type Fig3RightResult struct {
	Counts []analysis.ExtraASCount
	CCDF   []stats.CCDFPoint
	// FractionAtLeast2 / FractionAbove5 mirror the paper's headline
	// numbers (50% gained >= 2 extra ASes; 8% gained > 5).
	FractionAtLeast2 float64
	FractionAbove5   float64
}

// ExtraSamples returns the raw per-(prefix, session) extra-AS counts as a
// sampling distribution — the measured input RotationStudyConfig's
// ExtraASesPerMonth expects, closing the loop from the F3R measurement to
// the E7 longitudinal model.
func (r *Fig3RightResult) ExtraSamples() []int {
	out := make([]int, len(r.Counts))
	for i, c := range r.Counts {
		out[i] = c.Extra
	}
	return out
}

// RunFig3Right computes per-Tor-prefix extra-AS exposure with the paper's
// 5-minute dwell threshold.
func (w *World) RunFig3Right(st *bgpsim.Stream, minDwell time.Duration, filter analysis.ResetFilter) (*Fig3RightResult, error) {
	counts, err := analysis.ExtraASesPerTorPrefix(st, w.TorPrefixSet(), minDwell, filter)
	if err != nil {
		return nil, err
	}
	ccdf, err := analysis.ExtraASCCDF(counts)
	if err != nil {
		return nil, err
	}
	res := &Fig3RightResult{Counts: counts, CCDF: ccdf}
	var n2, n5 int
	for _, c := range counts {
		if c.Extra >= 2 {
			n2++
		}
		if c.Extra > 5 {
			n5++
		}
	}
	res.FractionAtLeast2 = float64(n2) / float64(len(counts))
	res.FractionAbove5 = float64(n5) / float64(len(counts))
	return res, nil
}

// --- E2: anonymity degradation model (§3.1) ---

// AnonymityCell is one entry of the §3.1 model table.
type AnonymityCell struct {
	F float64 // per-AS compromise probability
	X int     // distinct ASes on client-guard paths
	// Single uses one guard (1-(1-f)^x); MultiGuard uses l guards.
	Single     float64
	MultiGuard float64
}

// RunAnonymityModel evaluates the §3.1 closed-form model over a grid.
func RunAnonymityModel(fs []float64, xs []int, guards int) []AnonymityCell {
	out := make([]AnonymityCell, 0, len(fs)*len(xs))
	for _, f := range fs {
		for _, x := range xs {
			out = append(out, AnonymityCell{
				F: f, X: x,
				Single:     analysis.CompromiseProb(f, x),
				MultiGuard: analysis.MultiGuardCompromiseProb(f, x, guards),
			})
		}
	}
	return out
}

// --- E3: prefix hijack study (§3.2) ---

// HijackStudyConfig parameterises the hijack experiment.
type HijackStudyConfig struct {
	Seed int64
	// Attackers is the number of attacker ASes sampled per victim.
	Attackers int
	// TopPrefixes selects the victims: the highest-bandwidth guard
	// prefixes (the "very attractive targets" of §4).
	TopPrefixes int
	// ClientASes is the sample of candidate client networks for the
	// anonymity-set measurement (distinct ASes, clamped to the topology
	// size).
	ClientASes int
	// Workers bounds the trial-level parallelism; <1 means one worker
	// per CPU. Results are identical for every worker count.
	Workers int
}

// DefaultHijackStudyConfig samples 20 attackers against the top 5 guard
// prefixes with 100 candidate clients.
func DefaultHijackStudyConfig() HijackStudyConfig {
	return HijackStudyConfig{Seed: 1, Attackers: 20, TopPrefixes: 5, ClientASes: 100}
}

// HijackStudyResult aggregates the hijack trials.
type HijackStudyResult struct {
	Trials int
	// CaptureFraction summarises the fraction of ASes captured per
	// same-prefix hijack.
	CaptureFraction stats.Summary
	// AnonymitySetFraction summarises |anonymity set| / |clients|: how
	// far the hijack shrinks the candidate set.
	AnonymitySetFraction stats.Summary
	// MoreSpecificCapture is the capture fraction of a more-specific
	// hijack (expected ~1).
	MoreSpecificCapture float64
	// Surveillance is the traffic share observed when the top guard and
	// exit prefixes are intercepted simultaneously (§3.2's "general
	// surveillance" scenario).
	Surveillance attacks.SurveillanceShare
}

// guardPrefixesByBandwidth ranks Tor prefixes by total guard bandwidth.
func (w *World) guardPrefixesByBandwidth() []netip.Prefix {
	type pb struct {
		p  netip.Prefix
		bw uint64
	}
	sums := make(map[netip.Prefix]uint64)
	for i := range w.Consensus.Relays {
		r := &w.Consensus.Relays[i]
		if !r.IsGuard() && !r.IsExit() {
			continue
		}
		if p, _, ok := w.RIB.LongestMatch(r.Addr); ok {
			sums[p] += r.Bandwidth
		}
	}
	ranked := make([]pb, 0, len(sums))
	for p, bw := range sums {
		ranked = append(ranked, pb{p, bw})
	}
	slices.SortFunc(ranked, func(a, b pb) int {
		if c := cmp.Compare(b.bw, a.bw); c != 0 {
			return c
		}
		return bgp.ComparePrefix(a.p, b.p)
	})
	out := make([]netip.Prefix, len(ranked))
	for i, r := range ranked {
		out[i] = r.p
	}
	return out
}

// RunHijackStudy launches same-prefix hijacks from sampled attackers
// against the top guard prefixes, measuring capture and anonymity-set
// reduction, plus one more-specific hijack and the top-prefix
// surveillance share. Trials fan out over cfg.Workers goroutines; each
// trial derives its own RNG from the study seed, so the result is
// bit-for-bit identical for any worker count and always contains
// exactly TopPrefixes×Attackers trials (attacker==victim collisions are
// resampled, not dropped).
func (w *World) RunHijackStudy(cfg HijackStudyConfig) (*HijackStudyResult, error) {
	if cfg.Attackers < 1 || cfg.TopPrefixes < 1 || cfg.ClientASes < 1 {
		return nil, fmt.Errorf("quicksand: hijack study needs positive sample sizes")
	}
	prefixes := w.guardPrefixesByBandwidth()
	if len(prefixes) == 0 {
		return nil, fmt.Errorf("quicksand: no guard prefixes")
	}
	if cfg.TopPrefixes > len(prefixes) {
		cfg.TopPrefixes = len(prefixes)
	}
	all := w.Topology.ASNs()
	rng := par.NewRand(cfg.Seed)
	clients := sampleDistinctASNs(rng, all, cfg.ClientASes)

	type trial struct{ capture, anonFrac float64 }
	nTrials := cfg.TopPrefixes * cfg.Attackers
	outs, err := par.Map(cfg.Workers, nTrials, func(i int) (trial, error) {
		victim := w.Origins[prefixes[i/cfg.Attackers]]
		trng := par.NewRand(par.TrialSeed(cfg.Seed, i))
		attacker, err := sampleAttacker(trng, all, victim)
		if err != nil {
			return trial{}, err
		}
		h, err := attacks.Hijack(w.Topology, victim, attacker)
		if err != nil {
			return trial{}, err
		}
		anon := h.AnonymitySet(clients)
		return trial{h.CaptureFraction, float64(len(anon)) / float64(len(clients))}, nil
	})
	if err != nil {
		return nil, err
	}
	res := &HijackStudyResult{Trials: len(outs)}
	captures := make([]float64, len(outs))
	anonFracs := make([]float64, len(outs))
	for i, t := range outs {
		captures[i], anonFracs[i] = t.capture, t.anonFrac
	}
	if res.CaptureFraction, err = stats.Summarize(captures); err != nil {
		return nil, err
	}
	if res.AnonymitySetFraction, err = stats.Summarize(anonFracs); err != nil {
		return nil, err
	}

	// One more-specific hijack for the comparison row; its attacker draw
	// gets the trial stream one past the hijack trials.
	victim := w.Origins[prefixes[0]]
	msRng := par.NewRand(par.TrialSeed(cfg.Seed, nTrials))
	attacker, err := sampleAttacker(msRng, all, victim)
	if err != nil {
		return nil, err
	}
	ms, err := attacks.MoreSpecificHijack(w.Topology, victim, attacker)
	if err != nil {
		return nil, err
	}
	res.MoreSpecificCapture = ms.CaptureFraction

	// Surveillance share when the top prefixes are all intercepted.
	top := make(map[netip.Prefix]bool, cfg.TopPrefixes)
	for _, p := range prefixes[:cfg.TopPrefixes] {
		top[p] = true
	}
	res.Surveillance = attacks.Surveillance(w.Consensus, func(r *torconsensus.Relay) bool {
		p, _, ok := w.RIB.LongestMatch(r.Addr)
		return ok && top[p]
	})
	return res, nil
}

// --- E4: interception + asymmetric deanonymization (§3.2–3.3) ---

// InterceptStudyConfig parameterises the interception experiment.
type InterceptStudyConfig struct {
	Seed   int64
	Trials int
	// Decoys and FileSize configure each deanonymization trial.
	Decoys   int
	FileSize int
	Bin      time.Duration
	// Workers bounds the trial-level parallelism; <1 means one worker
	// per CPU. Results are identical for every worker count.
	Workers int
}

// DefaultInterceptStudyConfig runs 15 interception trials with 2 MB
// transfers against 5 decoys each.
func DefaultInterceptStudyConfig() InterceptStudyConfig {
	return InterceptStudyConfig{Seed: 1, Trials: 15, Decoys: 5, FileSize: 2 << 20, Bin: 250 * time.Millisecond}
}

// InterceptStudyResult aggregates the interception trials.
type InterceptStudyResult struct {
	Trials int
	// CleanPath counts interceptions whose forwarding path stayed
	// unpolluted (connections survive).
	CleanPath int
	// Effective counts clean-path interceptions that captured at least
	// one AS.
	Effective int
	// MeanCaptureFraction averages the captured fraction over effective
	// interceptions.
	MeanCaptureFraction float64
	// DeanonTrials/DeanonCorrect measure the asymmetric correlation
	// attack run after each effective interception.
	DeanonTrials  int
	DeanonCorrect int
}

// DeanonAccuracy returns the deanonymization success rate.
func (r *InterceptStudyResult) DeanonAccuracy() float64 {
	if r.DeanonTrials == 0 {
		return 0
	}
	return float64(r.DeanonCorrect) / float64(r.DeanonTrials)
}

// RunInterceptStudy launches prefix interceptions against the
// highest-bandwidth guard prefixes and, for each effective interception,
// runs the end-to-end asymmetric deanonymization attack. Trials fan out
// over cfg.Workers goroutines with per-trial RNG derivation, so the
// result is identical for any worker count and always contains exactly
// cfg.Trials trials.
func (w *World) RunInterceptStudy(cfg InterceptStudyConfig) (*InterceptStudyResult, error) {
	if cfg.Trials < 1 {
		return nil, fmt.Errorf("quicksand: need at least one trial")
	}
	prefixes := w.guardPrefixesByBandwidth()
	if len(prefixes) == 0 {
		return nil, fmt.Errorf("quicksand: no guard prefixes")
	}
	all := w.Topology.ASNs()

	type trial struct {
		clean, effective bool
		capture          float64
		deanonRan        bool
		deanonMatched    bool
	}
	outs, err := par.Map(cfg.Workers, cfg.Trials, func(i int) (trial, error) {
		victim := w.Origins[prefixes[i%min(len(prefixes), 10)]]
		tseed := par.TrialSeed(cfg.Seed, i)
		trng := par.NewRand(tseed)
		attacker, err := sampleAttacker(trng, all, victim)
		if err != nil {
			return trial{}, err
		}
		var t trial
		ir, err := attacks.Intercept(w.Topology, victim, attacker)
		if err != nil {
			return trial{}, err
		}
		if !ir.Success {
			return t, nil
		}
		t.clean = true
		if len(ir.Captured) == 0 {
			return t, nil
		}
		t.effective = true
		t.capture = ir.CaptureFraction

		dcfg := attacks.AsymmetricConfig{
			Seed:     par.TrialSeed(tseed, 1),
			Decoys:   cfg.Decoys,
			FileSize: cfg.FileSize,
			Bin:      cfg.Bin,
		}
		dr, err := attacks.AsymmetricDeanonymization(dcfg)
		if err != nil {
			return trial{}, err
		}
		t.deanonRan = true
		t.deanonMatched = dr.Matched
		return t, nil
	})
	if err != nil {
		return nil, err
	}

	res := &InterceptStudyResult{Trials: len(outs)}
	var captureSum float64
	for _, t := range outs {
		if t.clean {
			res.CleanPath++
		}
		if t.effective {
			res.Effective++
			captureSum += t.capture
		}
		if t.deanonRan {
			res.DeanonTrials++
			if t.deanonMatched {
				res.DeanonCorrect++
			}
		}
	}
	if res.Effective > 0 {
		res.MeanCaptureFraction = captureSum / float64(res.Effective)
	}
	return res, nil
}

// --- E5: countermeasure evaluation (§5) ---

// DefenseStudyConfig parameterises the defense experiment.
type DefenseStudyConfig struct {
	Seed int64
	// Workers bounds the circuit-judging parallelism; <1 means one
	// worker per CPU. Results are identical for every worker count.
	Workers int
}

// DefaultDefenseStudyConfig is the E5 study at seed 1.
func DefaultDefenseStudyConfig() DefenseStudyConfig {
	return DefenseStudyConfig{Seed: 1}
}

const (
	// defenseCircuits is the number of vanilla circuits sampled per
	// oracle to measure the unsafe fraction.
	defenseCircuits = 80
	// monitorLearnFraction splits the stream into a clean learning
	// prefix and an observed remainder.
	monitorLearnFraction = 0.5
	// injectedHijacks is the number of synthetic attack announcements
	// appended for the detection measurement.
	injectedHijacks = 10
)

// DefenseStudyResult aggregates E5.
type DefenseStudyResult struct {
	// UnsafeVanillaStatic / UnsafeVanillaDynamics are the fractions of
	// vanilla bandwidth-weighted circuits on which some AS observes both
	// segments, judged by the static and dynamics-aware oracles.
	UnsafeVanillaStatic   float64
	UnsafeVanillaDynamics float64
	// ASAwareFound reports whether AS-aware selection produced a safe
	// circuit for the sampled client/destination.
	ASAwareFound bool
	// ShortGuardMeanPathLen vs VanillaGuardMeanPathLen compare the
	// shorter-AS-PATH guard preference.
	ShortGuardMeanPathLen   float64
	VanillaGuardMeanPathLen float64
	// Monitor results: false alarms on the benign stream, and detection
	// of injected origin-change and more-specific hijacks.
	FalseAlarmRate      float64 // alerts per benign observed update
	HijacksInjected     int
	HijacksDetected     int
	MoreSpecificsCaught int
}

// RunDefenseStudy evaluates the §5 countermeasures on the world and a
// simulated stream.
func (w *World) RunDefenseStudy(st *bgpsim.Stream, cfg DefenseStudyConfig) (*DefenseStudyResult, error) {
	rng := par.NewRand(cfg.Seed)
	res := &DefenseStudyResult{}

	// --- relay selection defenses ---
	sel := torpath.NewSelector(w.Consensus, cfg.Seed)
	gs, err := sel.PickGuards(torpath.DefaultNumGuards, w.Consensus.ValidAfter)
	if err != nil {
		return nil, err
	}
	stubs := w.Topology.TierASNs(3)
	clientAS := stubs[rng.Intn(len(stubs))]
	destAS := stubs[rng.Intn(len(stubs))]

	static := defense.NewSharedStaticOracle(w.RouteCache())
	// Dynamics: extra ASes per origin AS, derived from the stream (the
	// §5 per-relay publication of last month's path dynamics). Only
	// extras seen from at least a quarter of the sessions count: those
	// sit near the destination and threaten every client, while
	// single-vantage extras are specific to one remote viewpoint.
	extra := make(map[bgp.ASN][]bgp.ASN)
	torSet := w.TorPrefixSet()
	minSessions := len(st.Sessions) / 4
	if minSessions < 2 {
		minSessions = 2
	}
	if sets, err := analysis.ExtraASSets(st, torSet, 5*time.Minute, minSessions, analysis.FilterGroundTruth); err == nil {
		for p, ases := range sets {
			origin := w.Origins[p]
			extra[origin] = append(extra[origin], ases...)
		}
	}
	dynamics := &defense.DynamicsOracle{Base: static, Extra: extra}

	awareStatic := &defense.ASAwareSelector{Selector: sel, Oracle: static, RelayAS: w.RelayAS}
	awareDyn := &defense.ASAwareSelector{Selector: sel, Oracle: dynamics, RelayAS: w.RelayAS}

	// Circuit sampling and safety judgement fan out per circuit: each
	// circuit gets its own selector seeded from the trial index (the
	// oracles are concurrency-safe and their cached route tables are
	// deterministic regardless of which worker computes them first).
	type verdict struct{ judged, unsafeStatic, unsafeDyn bool }
	verdicts, err := par.Map(cfg.Workers, defenseCircuits, func(i int) (verdict, error) {
		csel := torpath.NewSelector(w.Consensus, par.TrialSeed(cfg.Seed, i))
		c, err := csel.BuildCircuit(gs, 443)
		if err != nil {
			return verdict{}, err
		}
		okS, errS := awareStatic.CircuitSafe(c, clientAS, destAS)
		okD, errD := awareDyn.CircuitSafe(c, clientAS, destAS)
		if errS != nil || errD != nil {
			return verdict{}, nil
		}
		return verdict{true, !okS, !okD}, nil
	})
	if err != nil {
		return nil, err
	}
	var unsafeS, unsafeD, judged int
	for _, v := range verdicts {
		if !v.judged {
			continue
		}
		judged++
		if v.unsafeStatic {
			unsafeS++
		}
		if v.unsafeDyn {
			unsafeD++
		}
	}
	if judged > 0 {
		res.UnsafeVanillaStatic = float64(unsafeS) / float64(judged)
		res.UnsafeVanillaDynamics = float64(unsafeD) / float64(judged)
	}
	if _, err := awareDyn.BuildCircuit(gs, 443, clientAS, destAS); err == nil {
		res.ASAwareFound = true
	}

	// --- shorter AS-PATH guard preference ---
	pathLen := func(g *torconsensus.Relay) (int, bool) {
		asn, ok := w.RelayAS(g.Addr)
		if !ok {
			return 0, false
		}
		set, err := static.SegmentASes(clientAS, asn)
		if err != nil {
			return 0, false
		}
		return len(set) - 1, true
	}
	if short, err := defense.PickGuardsPreferShort(sel, static, w.RelayAS, clientAS,
		torpath.DefaultNumGuards, 3, w.Consensus.ValidAfter); err == nil {
		sum, n := 0, 0
		for _, g := range short.Guards {
			if l, ok := pathLen(g); ok {
				sum += l
				n++
			}
		}
		if n > 0 {
			res.ShortGuardMeanPathLen = float64(sum) / float64(n)
		}
	}
	sum, n := 0, 0
	for _, g := range gs.Guards {
		if l, ok := pathLen(g); ok {
			sum += l
			n++
		}
	}
	if n > 0 {
		res.VanillaGuardMeanPathLen = float64(sum) / float64(n)
	}

	// --- monitoring ---
	mon, err := defense.NewMonitor(w.TorWatchlist())
	if err != nil {
		return nil, err
	}
	rep, err := defense.RunMonitor(mon, st, monitorLearnFraction)
	if err != nil {
		return nil, err
	}
	if rep.Updates > 0 {
		res.FalseAlarmRate = float64(len(rep.Alerts)) / float64(rep.Updates)
	}

	// Inject synthetic hijacks (origin changes and more-specifics) and
	// require 100% detection — §5 tolerates false positives, never false
	// negatives.
	torList := w.SortedTorPrefixes()
	for i := 0; i < injectedHijacks && i < len(torList); i++ {
		victim := torList[i]
		attacker := bgp.ASN(990000 + i)
		res.HijacksInjected++
		ev := bgpsim.UpdateEvent{Time: st.End, Session: 0, Prefix: victim,
			Path: []bgp.ASN{3320, 1299, attacker}}
		if alerts := mon.Observe(&ev); len(alerts) > 0 {
			res.HijacksDetected++
		}
		// More-specific variant (split the prefix in half).
		if victim.Bits() < 31 {
			sub, err := victim.Addr().Prefix(victim.Bits() + 1)
			if err == nil {
				ev2 := bgpsim.UpdateEvent{Time: st.End, Session: 0, Prefix: sub,
					Path: []bgp.ASN{3320, 1299, attacker}}
				if alerts := mon.Observe(&ev2); len(alerts) > 0 {
					res.MoreSpecificsCaught++
				}
			}
		}
	}
	return res, nil
}

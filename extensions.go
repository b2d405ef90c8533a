package quicksand

// Extension experiments beyond the paper's published figures, quantifying
// two effects the paper discusses qualitatively:
//
//	E6 — BGP convergence transients (§3.1): ASes that glimpse the path
//	     toward a Tor prefix too briefly for timing analysis but long
//	     enough to learn *that* someone uses Tor (the Harvard case).
//	E7 — guard rotation (§2): how the guard lifetime (one month today,
//	     nine months proposed) trades relay-level exposure against
//	     AS-level exposure accumulated by path churn.

import (
	"fmt"
	"net/netip"
	"sort"
	"time"

	"quicksand/internal/analysis"
	"quicksand/internal/attacks"
	"quicksand/internal/bgp"
	"quicksand/internal/bgpsim"
	"quicksand/internal/defense"
	"quicksand/internal/par"
	"quicksand/internal/stats"
	"quicksand/internal/torconsensus"
	"quicksand/internal/torpath"
)

// --- E6: convergence transients ---

// ConvergenceResult bundles the E6 measurements.
type ConvergenceResult struct {
	// Transients holds one sample per (Tor prefix, session): ASes seen
	// for less than the dwell threshold.
	Transients []analysis.TransientASCount
	CCDF       []stats.CCDFPoint
	// FractionWithAny is the share of samples with at least one
	// transient observer.
	FractionWithAny float64
	// MeanTransient is the average number of convergence-only observers
	// per (prefix, session).
	MeanTransient float64
}

// RunConvergence computes the convergence-transient exposure: for every
// (Tor prefix, session), the number of ASes that briefly (dwell below
// maxDwell) appeared on the path. These ASes cannot run timing analysis,
// but each of them learns that some client communicates with a Tor guard
// — membership information §3.1 argues is dangerous on its own.
func (w *World) RunConvergence(st *bgpsim.Stream, maxDwell time.Duration, filter analysis.ResetFilter) (*ConvergenceResult, error) {
	tr, err := analysis.TransientASes(st, w.TorPrefixSet(), maxDwell, filter)
	if err != nil {
		return nil, err
	}
	xs := make([]float64, len(tr))
	withAny := 0
	sum := 0.0
	for i, t := range tr {
		xs[i] = float64(t.Transient)
		if t.Transient > 0 {
			withAny++
		}
		sum += float64(t.Transient)
	}
	ccdf, err := stats.CCDF(xs)
	if err != nil {
		return nil, err
	}
	return &ConvergenceResult{
		Transients:      tr,
		CCDF:            ccdf,
		FractionWithAny: float64(withAny) / float64(len(tr)),
		MeanTransient:   sum / float64(len(tr)),
	}, nil
}

// --- E7: guard rotation study ---

// RotationStudyConfig parameterises the longitudinal guard study.
type RotationStudyConfig struct {
	Seed    int64
	Clients int // Monte Carlo clients
	Months  int // study horizon
	// F is the per-AS compromise probability (§3.1's f); malicious ASes
	// are drawn once and collude.
	F float64
	// ExtraASesPerMonth is the distribution of additional ASes a
	// client-guard pair accrues per month of churn; sampled with
	// replacement. Feed it Fig3RightResult counts for measured inputs,
	// or leave nil for the default {0,1,1,2,2,3,5}.
	ExtraASesPerMonth []int
	// Lifetimes are the guard lifetimes (in months) to compare; the
	// paper-era default is 1, the proposal was 9.
	Lifetimes []int
	// EvolveMonthly applies a month of relay churn (departures, joiners,
	// Running flaps, bandwidth drift) between rotations: guards that
	// leave the network force replacement even under long lifetimes,
	// which is how real guard sets erode.
	EvolveMonthly bool
	// Workers bounds the per-client parallelism; <1 means one worker
	// per CPU. Results are identical for every worker count.
	Workers int
}

// DefaultRotationStudyConfig compares 1-month and 9-month guard
// lifetimes over two years with f = 0.02.
func DefaultRotationStudyConfig() RotationStudyConfig {
	return RotationStudyConfig{
		Seed: 1, Clients: 300, Months: 24, F: 0.02,
		Lifetimes: []int{1, 9},
	}
}

// RotationCurve is the compromise trajectory for one guard lifetime.
type RotationCurve struct {
	LifetimeMonths int
	// CompromisedFrac[m] is the fraction of clients with at least one
	// AS-level compromise opportunity by the end of month m+1.
	CompromisedFrac []float64
}

// RotationStudyResult bundles one curve per configured lifetime.
type RotationStudyResult struct {
	Curves []RotationCurve
}

// RunRotationStudy simulates clients over cfg.Months months. Each client
// keeps a guard set for the configured lifetime, then rotates. Every
// month, every client-guard pair is exposed to the ASes on the (static)
// client→guard route plus a churn-sampled count of extra ASes; if any
// exposed AS is malicious the client is compromised from that month on.
//
// The experiment quantifies §2's tension: long lifetimes limit exposure
// to new (possibly malicious) relays and new AS paths, but §3.1's churn
// means even a fixed guard leaks to more ASes every month — rotation is
// not the only way anonymity degrades.
//
// The Monte Carlo clients are mutually independent: per lifetime, the
// evolved consensus sequence is computed once, then clients fan out over
// cfg.Workers goroutines, each with an RNG derived from (seed, lifetime,
// client) — so curves are identical for any worker count.
func (w *World) RunRotationStudy(cfg RotationStudyConfig) (*RotationStudyResult, error) {
	if cfg.Clients < 1 || cfg.Months < 1 || len(cfg.Lifetimes) == 0 {
		return nil, fmt.Errorf("quicksand: rotation study needs clients, months and lifetimes")
	}
	if cfg.F <= 0 || cfg.F >= 1 {
		return nil, fmt.Errorf("quicksand: F %v out of (0,1)", cfg.F)
	}
	extras := cfg.ExtraASesPerMonth
	if len(extras) == 0 {
		extras = []int{0, 1, 1, 2, 2, 3, 5}
	}
	rng := par.NewRand(cfg.Seed)

	// Malicious AS draw (shared across lifetimes so curves are
	// comparable).
	malicious := make(map[bgp.ASN]bool)
	for _, asn := range w.Topology.ASNs() {
		if rng.Float64() < cfg.F {
			malicious[asn] = true
		}
	}
	stubs := w.Topology.TierASNs(3)
	if len(stubs) == 0 {
		return nil, fmt.Errorf("quicksand: no stub ASes for clients")
	}
	// Transit pool for churn-added observers, computed once.
	transit := append(append([]bgp.ASN(nil), w.Topology.TierASNs(1)...), w.Topology.TierASNs(2)...)
	if len(transit) == 0 {
		transit = w.Topology.ASNs()
	}

	// Per-destination tables come from the world's shared route cache —
	// the same memo E5's static oracle uses. Route computation is
	// deterministic, so it does not matter which worker populates an
	// entry first; same-destination callers share one compute.
	routes := w.RouteCache()
	start := w.Consensus.ValidAfter

	res := &RotationStudyResult{}
	for _, lifetime := range cfg.Lifetimes {
		if lifetime < 1 {
			return nil, fmt.Errorf("quicksand: lifetime %d months invalid", lifetime)
		}
		// Month-by-month consensus sequence and guard-liveness index,
		// shared (read-only) by every client. Evolution mutates the
		// hosting plan (joiners get addresses), so work on a copy to
		// keep lifetimes comparable and the world pristine.
		type monthState struct {
			cons  *torconsensus.Consensus
			alive map[string]bool
		}
		months := make([]monthState, cfg.Months)
		{
			cons := w.Consensus
			hosting := &torconsensus.Hosting{
				Prefixes:    w.Hosting.Prefixes,
				RelayPrefix: make(map[netip.Addr]netip.Prefix, len(w.Hosting.RelayPrefix)),
			}
			for a, p := range w.Hosting.RelayPrefix {
				hosting.RelayPrefix[a] = p
			}
			for m := 0; m < cfg.Months; m++ {
				now := start.Add(time.Duration(m) * 30 * 24 * time.Hour)
				if cfg.EvolveMonthly && m > 0 {
					var err error
					cons, err = torconsensus.Evolve(cons, hosting,
						torconsensus.DefaultEvolveConfig(cfg.Seed+int64(m)*31, len(cons.Relays)), now)
					if err != nil {
						return nil, err
					}
				}
				ms := monthState{cons: cons}
				if cfg.EvolveMonthly {
					ms.alive = make(map[string]bool, len(cons.Relays))
					for i := range cons.Relays {
						if cons.Relays[i].IsGuard() {
							ms.alive[cons.Relays[i].Identity] = true
						}
					}
				}
				months[m] = ms
			}
		}

		// Fan the independent clients out; each returns the first month
		// (index) with a compromise opportunity, or -1.
		lseed := par.TrialSeed(cfg.Seed, lifetime)
		firstHit, err := par.Map(cfg.Workers, cfg.Clients, func(c int) (int, error) {
			cseed := par.TrialSeed(lseed, c)
			crng := par.NewRand(cseed)
			client := stubs[crng.Intn(len(stubs))]
			var gs *torpath.GuardSet
			for m := 0; m < cfg.Months; m++ {
				now := start.Add(time.Duration(m) * 30 * 24 * time.Hour)
				ms := &months[m]
				// Per-(client, month) selector: guard draws must not
				// depend on other clients' draws.
				sel := torpath.NewSelector(ms.cons, par.TrialSeed(cseed, m+1))
				if gs == nil || gs.Expired(now) {
					picked, err := sel.PickGuards(torpath.DefaultNumGuards, now)
					if err != nil {
						return 0, err
					}
					picked.Lifetime = time.Duration(lifetime) * 30 * 24 * time.Hour
					gs = picked
				} else if cfg.EvolveMonthly {
					// Replace guards that left the network or lost the
					// Guard role — the erosion long lifetimes suffer.
					for gi, g := range gs.Guards {
						if ms.alive[g.Identity] {
							continue
						}
						repl := sel.WeightedPick(ms.cons.Guards(), gs.Guards)
						if repl != nil {
							gs.Guards[gi] = repl
						}
					}
				}
				for _, g := range gs.Guards {
					guardAS, ok := w.RelayAS(g.Addr)
					if !ok {
						continue
					}
					path, ok, err := routes.PathFrom(client, guardAS)
					if err != nil || !ok {
						continue
					}
					exposed := false
					for _, asn := range path {
						if malicious[asn] {
							exposed = true
							break
						}
					}
					// Churn adds extra observers this month, drawn from
					// the transit pool.
					if !exposed {
						k := extras[crng.Intn(len(extras))]
						for i := 0; i < k; i++ {
							if malicious[transit[crng.Intn(len(transit))]] {
								exposed = true
								break
							}
						}
					}
					if exposed {
						return m, nil
					}
				}
			}
			return -1, nil
		})
		if err != nil {
			return nil, err
		}

		curve := RotationCurve{LifetimeMonths: lifetime, CompromisedFrac: make([]float64, cfg.Months)}
		for m := 0; m < cfg.Months; m++ {
			count := 0
			for _, h := range firstHit {
				if h >= 0 && h <= m {
					count++
				}
			}
			curve.CompromisedFrac[m] = float64(count) / float64(cfg.Clients)
		}
		res.Curves = append(res.Curves, curve)
	}
	sort.Slice(res.Curves, func(i, j int) bool {
		return res.Curves[i].LifetimeMonths < res.Curves[j].LifetimeMonths
	})
	return res, nil
}

// --- E8: route-origin validation deployment study (conclusion) ---

// ROVStudyConfig parameterises the ROV deployment sweep.
type ROVStudyConfig struct {
	Seed int64
	// Deployments are the fractions of ASes running route-origin
	// validation to evaluate.
	Deployments []float64
	// Attackers is the number of attacker samples per deployment level.
	Attackers int
	// TopDown deploys at the highest-degree ASes first (how RPKI is
	// actually rolling out); false deploys uniformly at random.
	TopDown bool
	// Workers bounds the trial-level parallelism; <1 means one worker
	// per CPU. Results are identical for every worker count.
	Workers int
}

// DefaultROVStudyConfig sweeps 0–100% deployment, top-degree first.
func DefaultROVStudyConfig() ROVStudyConfig {
	return ROVStudyConfig{
		Seed:        1,
		Deployments: []float64{0, 0.1, 0.25, 0.5, 0.75, 1.0},
		Attackers:   15,
		TopDown:     true,
	}
}

// ROVPoint is one deployment level's outcome.
type ROVPoint struct {
	Deployment      float64
	MeanCapture     float64 // mean hijack capture fraction across attackers
	VictimProtected float64 // fraction of trials capturing below 5% of ASes
}

// ROVStudyResult is the deployment sweep.
type ROVStudyResult struct {
	Points []ROVPoint
}

// RunROVStudy measures how partial ROV deployment shrinks exact-prefix
// hijacks against the top guard prefix — quantifying the conclusion's
// "improvements in BGP security can go a long way". Validators are the
// highest-degree ASes first (TopDown) because filtering at well-connected
// networks shields their whole customer cones.
func (w *World) RunROVStudy(cfg ROVStudyConfig) (*ROVStudyResult, error) {
	if len(cfg.Deployments) == 0 || cfg.Attackers < 1 {
		return nil, fmt.Errorf("quicksand: ROV study needs deployments and attackers")
	}
	rng := par.NewRand(cfg.Seed)
	prefixes := w.guardPrefixesByBandwidth()
	if len(prefixes) == 0 {
		return nil, fmt.Errorf("quicksand: no guard prefixes")
	}
	victim := w.Origins[prefixes[0]]

	// Deployment order: by degree (descending) or shuffled.
	order := w.Topology.ASNs()
	if cfg.TopDown {
		sort.Slice(order, func(i, j int) bool {
			di := w.Topology.AS(order[i]).Degree()
			dj := w.Topology.AS(order[j]).Degree()
			if di != dj {
				return di > dj
			}
			return order[i] < order[j]
		})
	} else {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	}

	// Fixed attacker sample across deployment levels for comparability.
	attackers := make([]bgp.ASN, 0, cfg.Attackers)
	for len(attackers) < cfg.Attackers {
		a := order[rng.Intn(len(order))]
		if a != victim {
			attackers = append(attackers, a)
		}
	}

	// Validator sets per deployment level (read-only under the fan-out).
	validatorSets := make([]map[bgp.ASN]bool, len(cfg.Deployments))
	for di, d := range cfg.Deployments {
		if d < 0 || d > 1 {
			return nil, fmt.Errorf("quicksand: deployment %v out of [0,1]", d)
		}
		n := int(d * float64(len(order)))
		validators := make(map[bgp.ASN]bool, n)
		for _, asn := range order[:n] {
			validators[asn] = true
		}
		validatorSets[di] = validators
	}

	// Flatten the deployment × attacker grid into independent trials.
	captures, err := par.Map(cfg.Workers, len(cfg.Deployments)*cfg.Attackers, func(i int) (float64, error) {
		validators := validatorSets[i/cfg.Attackers]
		a := attackers[i%cfg.Attackers]
		h, err := attacks.HijackWithROV(w.Topology, victim, a, validators)
		if err != nil {
			return 0, err
		}
		return h.CaptureFraction, nil
	})
	if err != nil {
		return nil, err
	}

	res := &ROVStudyResult{}
	for di, d := range cfg.Deployments {
		var sum float64
		protected := 0
		for _, c := range captures[di*cfg.Attackers : (di+1)*cfg.Attackers] {
			sum += c
			if c < 0.05 {
				protected++
			}
		}
		res.Points = append(res.Points, ROVPoint{
			Deployment:      d,
			MeanCapture:     sum / float64(len(attackers)),
			VictimProtected: float64(protected) / float64(len(attackers)),
		})
	}
	return res, nil
}

// --- E9: live detection of in-stream attacks (§5) ---

// LiveDetectionConfig parameterises the in-stream detection experiment.
type LiveDetectionConfig struct {
	Seed int64
	// Attacks is the number of hijacks injected into the churn stream.
	Attacks int
	// AttackDuration is the mean hijack duration.
	AttackDuration time.Duration
	// Stream overrides for the short detection run.
	Month bgpsim.Config
}

// DefaultLiveDetectionConfig injects 12 twenty-minute hijacks into a
// shortened churn stream.
func DefaultLiveDetectionConfig() LiveDetectionConfig {
	m := SmallMonthConfig()
	m.Duration = m.Duration / 2
	m.ResetsPerSessionMean = 0.5
	return LiveDetectionConfig{Seed: 1, Attacks: 12, AttackDuration: 20 * time.Minute, Month: m}
}

// LiveDetectionResult reports detector performance against in-stream
// ground truth.
type LiveDetectionResult struct {
	Attacks  int
	Visible  int // attacks observed by at least one session
	Detected int // visible attacks for which the monitor alarmed in-window
	// MeanLatency is the mean delay from attack start to first alarm
	// over detected attacks.
	MeanLatency time.Duration
	// FalseAlarms counts alerts outside every attack window.
	FalseAlarms int
	// ObservedUpdates is the number of updates the monitor inspected.
	ObservedUpdates int
}

// RunLiveDetection simulates a churn stream with hijacks injected at
// random times against Tor prefixes, replays the whole stream through the
// §5 control-plane monitor, and scores detection against the simulator's
// ground truth — detection rate, latency, and false alarms under
// realistic noise, rather than against hand-crafted attack updates.
func (w *World) RunLiveDetection(cfg LiveDetectionConfig) (*LiveDetectionResult, error) {
	if cfg.Attacks < 1 {
		return nil, fmt.Errorf("quicksand: need at least one attack")
	}
	m := cfg.Month
	m.Seed = cfg.Seed
	m.InjectHijacks = cfg.Attacks
	m.HijackTargets = w.SortedTorPrefixes()
	m.HijackDuration = cfg.AttackDuration
	st, err := w.SimulateMonth(m)
	if err != nil {
		return nil, err
	}

	mon, err := defense.NewMonitor(w.TorWatchlist())
	if err != nil {
		return nil, err
	}

	res := &LiveDetectionResult{Attacks: len(st.Attacks)}
	// Attack visibility: an in-window update whose origin is the
	// attacker exists.
	slack := 2 * m.ConvergenceDelay
	inWindow := func(a bgpsim.AttackEvent, ts time.Time) bool {
		return !ts.Before(a.Start) && !ts.After(a.End.Add(slack))
	}
	firstAlarm := make(map[int]time.Time) // attack index -> first alert
	for i := range st.Updates {
		u := &st.Updates[i]
		alerts := mon.Observe(u)
		res.ObservedUpdates++
		if len(alerts) == 0 {
			continue
		}
		matched := false
		for ai := range st.Attacks {
			a := &st.Attacks[ai]
			if u.Prefix == a.Prefix && inWindow(*a, u.Time) {
				matched = true
				if _, seen := firstAlarm[ai]; !seen {
					firstAlarm[ai] = u.Time
				}
			}
		}
		if !matched {
			res.FalseAlarms += len(alerts)
		}
	}
	var latencySum time.Duration
	for ai := range st.Attacks {
		a := &st.Attacks[ai]
		visible := false
		for i := range st.Updates {
			u := &st.Updates[i]
			if u.Prefix == a.Prefix && !u.Withdraw() && inWindow(*a, u.Time) &&
				u.Path[len(u.Path)-1] == a.Attacker {
				visible = true
				break
			}
		}
		if !visible {
			continue
		}
		res.Visible++
		if at, ok := firstAlarm[ai]; ok {
			res.Detected++
			latencySum += at.Sub(a.Start)
		}
	}
	if res.Detected > 0 {
		res.MeanLatency = latencySum / time.Duration(res.Detected)
	}
	return res, nil
}

// --- ablation: routing-table-transfer filtering (§4 methodology) ---

// FilterAblationRow is the F3L outcome under one reset-filtering policy.
type FilterAblationRow struct {
	Filter              analysis.ResetFilter
	Name                string
	Samples             int
	MedianChanges       float64 // median Tor-prefix change count across samples
	FractionAboveMedian float64
	MaxRatio            float64
}

// FilterAblationResult compares the three reset-filtering policies.
type FilterAblationResult struct {
	Rows []FilterAblationRow
}

// RunFilterAblation quantifies the paper's methodological choice of
// removing session-reset churn (Zhang et al.): it reruns the Figure 3
// (left) analysis with no filtering, with the burst heuristic usable on
// real archives, and with the simulator's ground truth. The heuristic row
// should track ground truth closely; the unfiltered row shows how table
// transfers would bias the churn statistics if left in.
func (w *World) RunFilterAblation(st *bgpsim.Stream) (*FilterAblationResult, error) {
	policies := []struct {
		f    analysis.ResetFilter
		name string
	}{
		{analysis.FilterNone, "none"},
		{analysis.FilterHeuristic, "heuristic"},
		{analysis.FilterGroundTruth, "ground-truth"},
	}
	res := &FilterAblationResult{}
	for _, pol := range policies {
		f3l, err := w.RunFig3Left(st, pol.f)
		if err != nil {
			return nil, fmt.Errorf("quicksand: ablation %s: %w", pol.name, err)
		}
		changes := make([]float64, len(f3l.Ratios))
		for i, r := range f3l.Ratios {
			changes[i] = float64(r.Changes)
		}
		med, err := stats.Median(changes)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, FilterAblationRow{
			Filter: pol.f, Name: pol.name,
			Samples:             len(f3l.Ratios),
			MedianChanges:       med,
			FractionAboveMedian: f3l.FractionAboveMedian,
			MaxRatio:            f3l.MaxRatio,
		})
	}
	return res, nil
}

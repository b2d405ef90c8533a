package quicksand

import (
	"fmt"
	"math"

	"quicksand/internal/attacks"
	"quicksand/internal/bgp"
	"quicksand/internal/defense"
	"quicksand/internal/par"
	"quicksand/internal/resilience"
	"quicksand/internal/torconsensus"
	"quicksand/internal/torpath"
)

// --- E10: Counter-RAPTOR resilience-weighted guard selection ---
//
// The paper's §5 defenses are reactive (monitoring, probing); this
// extension evaluates the proactive follow-up from Counter-RAPTOR (Sun
// et al.): weight each guard by W(i) = a·R(i) + (1−a)·B(i), where R(i)
// is the client's AS-level resilience to an equally-specific prefix
// hijack of guard i, so clients preferentially pick guards that are
// hard to steal in the first place. The study runs vanilla
// bandwidth-weighted selection, the §5 short-AS-path preference, and
// resilience weighting over an a-sweep head to head: the analytic
// capture probability comes straight from the resilience matrix (the
// chance a uniformly random attacker captures the client's circuit
// guard), and E3-style explicit hijack trials validate it with real
// two-origin route computations plus the anonymity-set degradation the
// attacker achieves.

// ResilienceStudyConfig parameterises the E10 head-to-head comparison.
type ResilienceStudyConfig struct {
	Seed int64
	// Clients is the number of sampled client ASes per arm.
	Clients int
	// Alphas are the resilience-weight settings to sweep (each adds one
	// arm with W(i) = a·R(i) + (1−a)·B(i)).
	Alphas []float64
	// AttackerBudget is the per-guard sampled attacker budget for the
	// resilience matrix; 0 enumerates every attacker exactly.
	AttackerBudget int
	// HijackTrials is the number of explicit E3-style hijack trials per
	// arm validating the analytic capture probability.
	HijackTrials int
	// Workers bounds trial parallelism; <1 means one per CPU. Results
	// are identical for every worker count.
	Workers int
}

// DefaultResilienceStudyConfig compares vanilla selection against
// a = 0.5 and a = 1.0 with an exact resilience matrix.
func DefaultResilienceStudyConfig() ResilienceStudyConfig {
	return ResilienceStudyConfig{
		Seed:         1,
		Clients:      120,
		Alphas:       []float64{0.5, 1.0},
		HijackTrials: 60,
	}
}

// ResilienceArm is one selection strategy's measured outcome.
type ResilienceArm struct {
	// Name identifies the strategy ("bandwidth", "short-path", or
	// "resilience a=X").
	Name string
	// Alpha is the resilience weight (0 for the non-resilience arms).
	Alpha float64
	// MeanCapture is the analytic hijack-capture probability: the mean
	// over clients and their guard draws of 1 − R(client, guard AS) —
	// the chance a uniformly random attacker AS steals the client's
	// traffic to its circuit guard.
	MeanCapture float64
	// EmpiricalCapture is the captured fraction over the explicit
	// hijack trials (real two-origin route computations).
	EmpiricalCapture float64
	// AnonymitySetFraction is the mean fraction of client ASes the
	// trial attacker captures — the §3.1 anonymity degradation an
	// attacker achieves by hijacking a guard this strategy selects.
	AnonymitySetFraction float64
}

// ResilienceStudyResult aggregates the E10 arms.
type ResilienceStudyResult struct {
	GuardASes int
	Clients   int
	// AttackersPerGuard and ErrorBound describe the resilience matrix
	// the arms share (bound 0 = exact enumeration).
	AttackersPerGuard int
	ErrorBound        float64
	MatrixPairs       int
	MatrixTables      int

	Vanilla   ResilienceArm
	ShortPath ResilienceArm
	// Resilience holds one arm per configured alpha, in sweep order.
	Resilience []ResilienceArm
}

// CaptureMargin is the smallest drop in mean capture probability from
// the vanilla arm to any resilience arm; > 0 means resilience weighting
// lowered capture at every alpha of the sweep.
func (r *ResilienceStudyResult) CaptureMargin() float64 {
	m := math.Inf(1)
	for _, a := range r.Resilience {
		m = min(m, r.Vanilla.MeanCapture-a.MeanCapture)
	}
	return m
}

// RunResilienceStudy computes the shared resilience matrix over every
// guard-hosting AS and runs the selection arms head to head. Each
// (arm, client) and (arm, trial) derives its own RNG from the study
// seed, so the result is bit-for-bit identical for any worker count.
func (w *World) RunResilienceStudy(cfg ResilienceStudyConfig) (*ResilienceStudyResult, error) {
	if cfg.Clients < 1 || cfg.HijackTrials < 0 {
		return nil, fmt.Errorf("quicksand: resilience study needs positive sample sizes")
	}
	for _, a := range cfg.Alphas {
		if a < 0 || a > 1 {
			return nil, fmt.Errorf("quicksand: resilience study alpha %v outside [0,1]", a)
		}
	}
	guardASes := w.GuardASes()
	if len(guardASes) == 0 {
		return nil, fmt.Errorf("quicksand: no guard-hosting ASes")
	}
	mx, err := w.ResilienceEngine().Matrix(resilience.Config{
		Guards:    guardASes,
		Attackers: cfg.AttackerBudget,
		Seed:      cfg.Seed,
		Workers:   cfg.Workers,
	})
	if err != nil {
		return nil, err
	}

	all := w.Topology.ASNs()
	clients := sampleDistinctASNs(par.NewRand(cfg.Seed), all, cfg.Clients)

	res := &ResilienceStudyResult{
		GuardASes:         len(guardASes),
		Clients:           len(clients),
		AttackersPerGuard: mx.Attackers(),
		ErrorBound:        mx.ErrorBound95(),
		MatrixPairs:       mx.Pairs(),
		MatrixTables:      mx.Tables(),
	}

	static := defense.NewSharedStaticOracle(w.RouteCache())
	type armSpec struct {
		name  string
		alpha float64
		pick  func(sel *torpath.Selector, client bgp.ASN) (*torpath.GuardSet, error)
	}
	arms := []armSpec{
		{name: "bandwidth", pick: func(sel *torpath.Selector, _ bgp.ASN) (*torpath.GuardSet, error) {
			return sel.PickGuards(torpath.DefaultNumGuards, w.Consensus.ValidAfter)
		}},
		{name: "short-path", pick: func(sel *torpath.Selector, client bgp.ASN) (*torpath.GuardSet, error) {
			return defense.PickGuardsPreferShort(sel, static, w.RelayAS, client,
				torpath.DefaultNumGuards, 3, w.Consensus.ValidAfter)
		}},
	}
	guardCands := w.Consensus.Guards()
	for _, a := range cfg.Alphas {
		alpha := a
		arms = append(arms, armSpec{
			name:  fmt.Sprintf("resilience a=%.2f", alpha),
			alpha: alpha,
			pick: func(sel *torpath.Selector, client bgp.ASN) (*torpath.GuardSet, error) {
				weight, err := torpath.ResilienceWeight(guardCands, alpha,
					func(r *torconsensus.Relay) (float64, bool) {
						asn, ok := w.RelayAS(r.Addr)
						if !ok {
							return 0, false
						}
						return mx.R(client, asn)
					})
				if err != nil {
					return nil, err
				}
				return sel.PickGuardsFn(torpath.DefaultNumGuards, w.Consensus.ValidAfter, weight)
			},
		})
	}

	// One disjoint trial-seed block per arm: Clients selector draws,
	// then HijackTrials attack draws.
	stride := cfg.Clients + cfg.HijackTrials
	for ai, spec := range arms {
		arm := ResilienceArm{Name: spec.name, Alpha: spec.alpha}
		base := ai * stride

		// Selection pass: each client picks its guard set and its
		// analytic capture probability is read off the matrix.
		type pick struct {
			capture  float64
			guardASp []bgp.ASN
		}
		picks, err := par.Map(cfg.Workers, len(clients), func(ci int) (pick, error) {
			client := clients[ci]
			sel := torpath.NewSelector(w.Consensus, par.TrialSeed(cfg.Seed, base+ci))
			gs, err := spec.pick(sel, client)
			if err != nil {
				return pick{}, fmt.Errorf("%s client %v: %w", spec.name, client, err)
			}
			var p pick
			n := 0
			for _, g := range gs.Guards {
				asn, ok := w.RelayAS(g.Addr)
				if !ok {
					continue
				}
				r, ok := mx.R(client, asn)
				if !ok {
					continue
				}
				p.capture += 1 - r
				p.guardASp = append(p.guardASp, asn)
				n++
			}
			if n == 0 {
				return pick{}, fmt.Errorf("%s client %v: no guard maps to an AS", spec.name, client)
			}
			p.capture /= float64(n)
			return p, nil
		})
		if err != nil {
			return nil, err
		}
		for _, p := range picks {
			arm.MeanCapture += p.capture
		}
		arm.MeanCapture /= float64(len(picks))

		// Validation pass: explicit E3-style hijacks against the guard
		// ASes this strategy actually chose.
		if cfg.HijackTrials > 0 {
			type trial struct {
				captured float64
				anonFrac float64
			}
			trials, err := par.Map(cfg.Workers, cfg.HijackTrials, func(t int) (trial, error) {
				trng := par.NewRand(par.TrialSeed(cfg.Seed, base+cfg.Clients+t))
				ci := trng.Intn(len(clients))
				gases := picks[ci].guardASp
				victim := gases[trng.Intn(len(gases))]
				attacker, err := sampleAttacker(trng, all, victim)
				if err != nil {
					return trial{}, err
				}
				h, err := attacks.Hijack(w.Topology, victim, attacker)
				if err != nil {
					return trial{}, err
				}
				var tr trial
				if h.CapturedSet()[clients[ci]] {
					tr.captured = 1
				}
				tr.anonFrac = float64(len(h.AnonymitySet(clients))) / float64(len(clients))
				return tr, nil
			})
			if err != nil {
				return nil, err
			}
			for _, t := range trials {
				arm.EmpiricalCapture += t.captured
				arm.AnonymitySetFraction += t.anonFrac
			}
			arm.EmpiricalCapture /= float64(len(trials))
			arm.AnonymitySetFraction /= float64(len(trials))
		}

		switch ai {
		case 0:
			res.Vanilla = arm
		case 1:
			res.ShortPath = arm
		default:
			res.Resilience = append(res.Resilience, arm)
		}
	}
	return res, nil
}

// Package attacks implements the active BGP attacks of paper §3.2 and the
// asymmetric deanonymization experiment of §3.3:
//
//   - prefix hijack: the attacker originates the victim's prefix,
//     blackholing the captured portion of the Internet and learning the
//     anonymity set of clients using the victim guard;
//   - prefix interception: a hijack variant where the attacker keeps a
//     clean path back to the victim, so connections stay alive and full
//     timing analysis becomes possible;
//   - community-scoped stealth hijack: the announcement propagates to
//     only a few chosen neighbors, trading captured ASes for a much
//     smaller detection footprint;
//   - end-to-end asymmetric deanonymization: interception plus TCP-level
//     byte-count correlation identifying the true client among decoys.
package attacks

import (
	"fmt"
	"time"

	"quicksand/internal/bgp"
	"quicksand/internal/correlation"
	"quicksand/internal/tcpsim"
	"quicksand/internal/topology"
	"quicksand/internal/torconsensus"
)

// HijackResult describes the routing outcome of a prefix hijack.
type HijackResult struct {
	Victim   bgp.ASN
	Attacker bgp.ASN
	// Captured lists the ASes (excluding the attacker) whose best route
	// for the victim prefix now leads to the attacker; their traffic is
	// blackholed and its source addresses are readable by the attacker.
	Captured []bgp.ASN
	// CaptureFraction is |Captured| over all other ASes (victim and
	// attacker excluded).
	CaptureFraction float64
	// Routes is the post-attack routing table, for downstream analyses
	// (array-backed; use Route/At/PathFrom, or Table for the legacy map).
	Routes *topology.CompiledRoutes
}

// CapturedSet returns the captured ASes as a set.
func (h *HijackResult) CapturedSet() map[bgp.ASN]bool {
	s := make(map[bgp.ASN]bool, len(h.Captured))
	for _, a := range h.Captured {
		s[a] = true
	}
	return s
}

// AnonymitySet intersects candidate client ASes with the captured set:
// the clients whose connections to the victim guard the attacker can
// enumerate from IP headers during the hijack (§3.2's reduced anonymity
// set).
func (h *HijackResult) AnonymitySet(clients []bgp.ASN) []bgp.ASN {
	cap := h.CapturedSet()
	var out []bgp.ASN
	for _, c := range clients {
		if cap[c] || c == h.Attacker {
			out = append(out, c)
		}
	}
	return out
}

// capturedBy scans the table id-ascending (== ASN-ascending, so Captured
// comes out sorted) for ASes routing toward the attacker's origination.
func capturedBy(rt *topology.CompiledRoutes, victim, attacker bgp.ASN) (captured []bgp.ASN, fraction float64) {
	others := 0
	for i := 0; i < rt.Len(); i++ {
		asn := rt.ASN(i)
		if asn == victim || asn == attacker {
			continue
		}
		others++
		if r := rt.At(i); r.Type != topology.RouteNone && r.Origin == attacker {
			captured = append(captured, asn)
		}
	}
	if others > 0 {
		fraction = float64(len(captured)) / float64(others)
	}
	return captured, fraction
}

func computeHijack(g *topology.Graph, victim, attacker topology.Origin) (*HijackResult, error) {
	if victim.ASN == attacker.ASN {
		return nil, fmt.Errorf("attacks: attacker and victim are the same AS %v", victim.ASN)
	}
	rt, err := g.Routes(nil, victim, attacker)
	if err != nil {
		return nil, err
	}
	res := &HijackResult{Victim: victim.ASN, Attacker: attacker.ASN, Routes: rt}
	res.Captured, res.CaptureFraction = capturedBy(rt, victim.ASN, attacker.ASN)
	return res, nil
}

// Hijack simulates an ordinary same-prefix hijack: attacker announces the
// victim's exact prefix to all its neighbors. (A more-specific-prefix
// hijack captures everything and is detected by every AS; see
// MoreSpecificHijack.)
func Hijack(g *topology.Graph, victim, attacker bgp.ASN) (*HijackResult, error) {
	return computeHijack(g, topology.Origin{ASN: victim}, topology.Origin{ASN: attacker})
}

// MoreSpecificHijack simulates announcing a more-specific prefix of the
// victim's block: longest-prefix match means every AS with any route to
// the attacker's announcement prefers it, so the attacker captures the
// entire Internet (minus the victim itself) — at the cost of a globally
// visible bogus announcement.
func MoreSpecificHijack(g *topology.Graph, victim, attacker bgp.ASN) (*HijackResult, error) {
	if victim == attacker {
		return nil, fmt.Errorf("attacks: attacker and victim are the same AS %v", victim)
	}
	// Only the attacker originates the more-specific; the victim's
	// covering announcement does not compete under LPM.
	rt, err := g.Routes(nil, topology.Origin{ASN: attacker})
	if err != nil {
		return nil, err
	}
	res := &HijackResult{Victim: victim, Attacker: attacker, Routes: rt}
	res.Captured, res.CaptureFraction = capturedBy(rt, victim, attacker)
	return res, nil
}

// InterceptionResult extends HijackResult with the attacker's forwarding
// path back to the victim.
type InterceptionResult struct {
	HijackResult
	// PathToVictim is the attacker's (pre-attack) path used to forward
	// captured traffic onward to the victim.
	PathToVictim []bgp.ASN
	// Success reports whether the path stayed clean: no AS on it was
	// captured by the attack, so forwarded packets reach the victim and
	// connections stay alive.
	Success bool
}

// Intercept simulates a prefix interception (Ballani et al., as used in
// §3.2): the attacker announces the victim's prefix but withholds the
// announcement from the neighbors it uses to reach the victim, keeping a
// working return path. On success the attacker sees the captured ASes'
// traffic *and* the connections survive, enabling exact deanonymization
// via timing analysis.
func Intercept(g *topology.Graph, victim, attacker bgp.ASN) (*InterceptionResult, error) {
	if victim == attacker {
		return nil, fmt.Errorf("attacks: attacker and victim are the same AS %v", victim)
	}
	// Pre-attack path from attacker to victim.
	pre, err := g.Routes(nil, topology.Origin{ASN: victim})
	if err != nil {
		return nil, err
	}
	path, ok := pre.PathFrom(attacker)
	if !ok {
		return nil, fmt.Errorf("attacks: attacker %v has no route to victim %v", attacker, victim)
	}
	// Withhold the malicious announcement from the first hop of the
	// return path.
	withhold := map[bgp.ASN]bool{}
	if len(path) > 1 {
		withhold[path[1]] = true
	}
	res, err := computeHijack(g,
		topology.Origin{ASN: victim},
		topology.Origin{ASN: attacker, WithholdFrom: withhold})
	if err != nil {
		return nil, err
	}
	out := &InterceptionResult{HijackResult: *res, PathToVictim: path, Success: true}
	captured := res.CapturedSet()
	for _, hop := range path[1:] { // the attacker itself is "captured" by design
		if captured[hop] {
			out.Success = false
			break
		}
	}
	return out, nil
}

// ScopedHijackResult extends HijackResult with the detection footprint of
// a community-scoped announcement.
type ScopedHijackResult struct {
	HijackResult
	// Footprint counts the ASes whose best route changed relative to the
	// pre-attack state — the set of networks that could possibly notice
	// the attack from their own routing tables (the Renesys-style
	// stealth metric of §3.2).
	Footprint int
}

// ScopedHijack simulates a community-scoped stealth hijack: the attacker
// announces the victim's prefix to only the given neighbors (as BGP
// communities limiting propagation would arrange), capturing a small,
// predictable region while keeping the bogus route invisible elsewhere.
func ScopedHijack(g *topology.Graph, victim, attacker bgp.ASN, announceTo []bgp.ASN) (*ScopedHijackResult, error) {
	if len(announceTo) == 0 {
		return nil, fmt.Errorf("attacks: scoped hijack needs at least one target neighbor")
	}
	only := make(map[bgp.ASN]bool, len(announceTo))
	for _, n := range announceTo {
		if _, adjacent := g.RelBetween(attacker, n); !adjacent {
			return nil, fmt.Errorf("attacks: %v is not a neighbor of attacker %v", n, attacker)
		}
		only[n] = true
	}
	pre, err := g.Routes(nil, topology.Origin{ASN: victim})
	if err != nil {
		return nil, err
	}
	res, err := computeHijack(g,
		topology.Origin{ASN: victim},
		topology.Origin{ASN: attacker, AnnounceOnly: only})
	if err != nil {
		return nil, err
	}
	out := &ScopedHijackResult{HijackResult: *res}
	for i := 0; i < pre.Len(); i++ {
		if pre.ASN(i) == attacker {
			continue
		}
		a, b := pre.At(i), res.Routes.At(i)
		aok, bok := a.Type != topology.RouteNone, b.Type != topology.RouteNone
		if aok != bok || (aok && (a.Origin != b.Origin || a.NextHop != b.NextHop)) {
			out.Footprint++
		}
	}
	return out, nil
}

// SurveillanceShare quantifies §3.2's "general surveillance": the
// bandwidth-weighted fraction of Tor entry (guard) and exit traffic an
// adversary observes after capturing the given set of relay addresses.
type SurveillanceShare struct {
	GuardShare float64 // fraction of entry traffic observed
	ExitShare  float64 // fraction of exit traffic observed
	// CircuitShare is the fraction of circuits observable on at least
	// one end, treating guard and exit choices as independent
	// bandwidth-weighted draws.
	CircuitShare float64
}

// Surveillance computes the traffic shares for an adversary observing all
// relays for which observed returns true (e.g. relays inside intercepted
// prefixes).
func Surveillance(cons *torconsensus.Consensus, observed func(r *torconsensus.Relay) bool) SurveillanceShare {
	var gTot, gObs, eTot, eObs float64
	for i := range cons.Relays {
		r := &cons.Relays[i]
		if r.IsGuard() {
			gTot += float64(r.Bandwidth)
			if observed(r) {
				gObs += float64(r.Bandwidth)
			}
		}
		if r.IsExit() {
			eTot += float64(r.Bandwidth)
			if observed(r) {
				eObs += float64(r.Bandwidth)
			}
		}
	}
	var s SurveillanceShare
	if gTot > 0 {
		s.GuardShare = gObs / gTot
	}
	if eTot > 0 {
		s.ExitShare = eObs / eTot
	}
	s.CircuitShare = 1 - (1-s.GuardShare)*(1-s.ExitShare)
	return s
}

// AsymmetricConfig parameterises the end-to-end deanonymization
// experiment: the adversary has intercepted the guard's prefix (so it
// sees the client→guard ACK stream of every captured client) and watches
// the target connection near the server; it must pick the true client
// among decoys by correlating byte counts (§3.3, Figure 1c).
type AsymmetricConfig struct {
	Seed     int64
	Decoys   int           // number of decoy clients also using the guard
	FileSize int           // bytes of the target download
	Bin      time.Duration // correlation bin width
}

// AsymmetricResult reports one deanonymization trial.
type AsymmetricResult struct {
	// Matched is true when the highest-correlating client-side stream
	// belongs to the true client.
	Matched bool
	// TrueScore and BestDecoyScore allow margin analysis.
	TrueScore      float64
	BestDecoyScore float64
}

// AsymmetricDeanonymization runs one trial: the target and each decoy
// run independent downloads through the same guard; the adversary
// correlates the server-side data series of the target connection against
// every client-side ACK series. This is the attack demonstrated feasible
// by Figure 2 (right): only ACKs are observed at the client end.
func AsymmetricDeanonymization(cfg AsymmetricConfig) (*AsymmetricResult, error) {
	if cfg.Decoys < 1 {
		return nil, fmt.Errorf("attacks: need at least one decoy")
	}
	if cfg.Bin <= 0 {
		return nil, fmt.Errorf("attacks: non-positive bin")
	}
	base := tcpsim.DefaultConfig()
	base.FileSize = cfg.FileSize
	base.Seed = cfg.Seed

	target, err := tcpsim.Run(base)
	if err != nil {
		return nil, err
	}
	nbins := int(target.Finished.Sub(base.Start)/cfg.Bin) + 2
	maxLag := int(base.CircuitDelay/cfg.Bin) + 3
	if maxLag >= nbins-1 {
		return nil, fmt.Errorf("attacks: transfer too short for bin %v", cfg.Bin)
	}

	serverSide, err := correlation.DataSeries(target.ServerToExit, base.Start, cfg.Bin, nbins)
	if err != nil {
		return nil, err
	}
	candidates := make([]correlation.Series, 0, cfg.Decoys+1)
	trueSeries, err := correlation.AckSeries(target.ClientToGuard, base.Start, cfg.Bin, nbins)
	if err != nil {
		return nil, err
	}
	candidates = append(candidates, trueSeries)
	for d := 0; d < cfg.Decoys; d++ {
		dc := tcpsim.DefaultConfig()
		dc.FileSize = cfg.FileSize
		dc.Seed = cfg.Seed + int64(d)*7919 + 13
		dc.Start = base.Start.Add(time.Duration(d%5) * 700 * time.Millisecond)
		dc.BottleneckBps = base.BottleneckBps * (80 + (d*13)%40) / 100
		decoy, err := tcpsim.Run(dc)
		if err != nil {
			return nil, err
		}
		ds, err := correlation.AckSeries(decoy.ClientToGuard, base.Start, cfg.Bin, nbins)
		if err != nil {
			return nil, err
		}
		candidates = append(candidates, ds)
	}
	match, err := correlation.MatchFlows(serverSide, candidates, maxLag)
	if err != nil {
		return nil, err
	}
	res := &AsymmetricResult{Matched: match.Best == 0, TrueScore: match.Scores[0]}
	for _, s := range match.Scores[1:] {
		if s > res.BestDecoyScore {
			res.BestDecoyScore = s
		}
	}
	return res, nil
}

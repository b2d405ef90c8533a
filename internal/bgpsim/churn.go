package bgpsim

import (
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"sort"
	"time"

	"quicksand/internal/bgp"
	"quicksand/internal/topology"
)

// CollectorSpec names one collector and how many eBGP sessions it has.
type CollectorSpec struct {
	Name     string
	Sessions int
}

// Config parameterises a simulation run. DefaultConfig matches the
// paper's measurement setting (4 collectors, >70 sessions, one month).
type Config struct {
	Seed       int64
	Start      time.Time
	Duration   time.Duration
	Collectors []CollectorSpec

	// MinVisibility/MaxVisibility bound the fraction of prefixes each
	// session learns; one session is forced to MaxVisibility so the
	// stream has a near-full-table vantage like the paper's best session
	// (99% of Tor prefixes).
	MinVisibility float64
	MaxVisibility float64

	// LinkFailures is the number of ordinary link outages over the run.
	LinkFailures int
	// MeanOutage is the mean outage duration (exponentially
	// distributed, truncated to the run).
	MeanOutage time.Duration

	// OriginChurnEvents is the number of access-link outages hitting the
	// origin ASes themselves (a multihomed origin briefly loses one
	// provider). These events provide the baseline churn every real BGP
	// prefix exhibits over a month — the denominator of the paper's
	// Figure 3 (left) median normalisation.
	OriginChurnEvents int
	// OriginOutage is the mean duration of origin access-link outages.
	OriginOutage time.Duration

	// FlapEpisodes is the number of targeted instability episodes: an
	// access link of some origin AS flaps repeatedly, producing the
	// heavy per-prefix churn tail the paper observed on Tor prefixes.
	FlapEpisodes int
	// MaxFlapCycles bounds the number of down/up cycles per episode
	// (drawn log-uniformly from [4, MaxFlapCycles]).
	MaxFlapCycles int
	// FlapInterval is the mean time between cycles within an episode.
	FlapInterval time.Duration

	// BiasOrigins lists origin ASes (e.g. the relay-hosting ASes) that
	// attract a disproportionate share of instability; BiasFraction of
	// failures and flap episodes target their vicinity.
	BiasOrigins  []bgp.ASN
	BiasFraction float64

	// PolicyEvents is the number of rare routing-policy shifts (a
	// peering appears or disappears); each forces a full recompute.
	PolicyEvents int

	// ResetsPerSessionMean is the expected number of session resets per
	// collector session over the run.
	ResetsPerSessionMean float64

	// InjectHijacks injects this many same-prefix hijacks into the run:
	// a random AS additionally originates one of HijackTargets for a
	// while, so captured sessions see origin-changed announcements
	// embedded in the ordinary churn. Ground truth lands in
	// Stream.Attacks for detector evaluation.
	InjectHijacks int
	// HijackTargets are the candidate victim prefixes (defaults to the
	// prefixes originated by BiasOrigins, else any prefix).
	HijackTargets []netip.Prefix
	// HijackDuration is the mean attack duration.
	HijackDuration time.Duration

	// ExplorationProb is the probability that a path change on a session
	// is preceded by transient exploration announcements (BGP
	// convergence visiting alternate paths).
	ExplorationProb float64
	// ConvergenceDelay is how long after a routing event the stable path
	// is announced; exploration paths appear within this window.
	ConvergenceDelay time.Duration

	// TransferCheck, when non-nil, is called after each completed reset
	// table transfer with the session index, the re-establishment time,
	// the session's announced table (known), and the live table
	// restricted to the session's visibility. Both maps are read-only. A
	// non-nil return aborts the run. It is a verification hook backing
	// internal/testkit's reset invariant — after a transfer, known must
	// equal live.
	TransferCheck func(si int, up time.Time, known, live map[netip.Prefix][]bgp.ASN) error
}

// DefaultConfig returns the month-scale configuration used by the paper
// reproduction: 4 collectors with 72 sessions total over 31 days.
func DefaultConfig() Config {
	return Config{
		Seed:     1,
		Start:    time.Date(2014, 5, 1, 0, 0, 0, 0, time.UTC),
		Duration: 31 * 24 * time.Hour,
		Collectors: []CollectorSpec{
			{Name: "rrc00", Sessions: 18},
			{Name: "rrc01", Sessions: 18},
			{Name: "rrc03", Sessions: 18},
			{Name: "rrc04", Sessions: 18},
		},
		MinVisibility:        0.25,
		MaxVisibility:        0.99,
		LinkFailures:         500,
		MeanOutage:           45 * time.Minute,
		OriginChurnEvents:    3000,
		OriginOutage:         30 * time.Minute,
		FlapEpisodes:         40,
		MaxFlapCycles:        1500,
		FlapInterval:         4 * time.Minute,
		BiasFraction:         0.5,
		PolicyEvents:         3,
		ResetsPerSessionMean: 1.2,
		ExplorationProb:      0.35,
		ConvergenceDelay:     90 * time.Second,
	}
}

func (c *Config) validate() error {
	if c.Duration <= 0 {
		return fmt.Errorf("bgpsim: non-positive duration")
	}
	if len(c.Collectors) == 0 {
		return fmt.Errorf("bgpsim: no collectors")
	}
	for _, cs := range c.Collectors {
		if cs.Sessions < 1 {
			return fmt.Errorf("bgpsim: collector %q has no sessions", cs.Name)
		}
	}
	if c.MinVisibility <= 0 || c.MaxVisibility > 1 || c.MinVisibility > c.MaxVisibility {
		return fmt.Errorf("bgpsim: bad visibility range [%v, %v]", c.MinVisibility, c.MaxVisibility)
	}
	if c.BiasFraction < 0 || c.BiasFraction > 1 {
		return fmt.Errorf("bgpsim: BiasFraction %v out of [0,1]", c.BiasFraction)
	}
	if c.ExplorationProb < 0 || c.ExplorationProb > 1 {
		return fmt.Errorf("bgpsim: ExplorationProb %v out of [0,1]", c.ExplorationProb)
	}
	if c.ConvergenceDelay <= 0 {
		return fmt.Errorf("bgpsim: non-positive convergence delay")
	}
	if c.ExplorationProb > 0 && c.ConvergenceDelay < 2 {
		// The exploration jitter is drawn from [0, ConvergenceDelay/2);
		// a sub-2ns delay makes that interval empty.
		return fmt.Errorf("bgpsim: ConvergenceDelay %v too small for exploration jitter", c.ConvergenceDelay)
	}
	return nil
}

// event is one scheduled routing or session event.
type event struct {
	at   time.Time
	kind int
	a, b bgp.ASN // link endpoints for link events; attacker in b for hijacks
	rel  topology.Rel
	si   int           // session index for resets
	up   time.Duration // downtime for resets / hijack duration
	pfx  netip.Prefix  // target prefix for hijack events
	// pairIdx links a recovery to its failure for affected-set reuse.
	pairIdx int
}

const (
	evLinkDown = iota
	evLinkUp
	evPolicy
	evReset
	evHijackStart
	evHijackEnd
	// evTransfer is the internal companion of evReset: the post-reset
	// table transfer, scheduled at the session's re-establishment time so
	// it reads the tables as they are *then*, not at failure time.
	evTransfer
)

// Run executes the simulation and returns the observed stream.
func (s *Sim) Run(cfg Config) (*Stream, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	end := cfg.Start.Add(cfg.Duration)

	st := &Stream{Start: cfg.Start, End: end, Initial: make(map[int]map[netip.Prefix][]bgp.ASN)}

	// --- Sessions: vantage ASes drawn from the transit core. ---
	vantagePool := append(s.graph.TierASNs(1), s.graph.TierASNs(2)...)
	if len(vantagePool) == 0 {
		vantagePool = s.graph.ASNs()
	}
	allPrefixes := make([]netip.Prefix, 0, len(s.origins))
	for p := range s.origins {
		allPrefixes = append(allPrefixes, p)
	}
	sortPrefixes(allPrefixes)

	for _, cs := range cfg.Collectors {
		for i := 0; i < cs.Sessions; i++ {
			v := vantagePool[rng.Intn(len(vantagePool))]
			cov := cfg.MinVisibility + (cfg.MaxVisibility-cfg.MinVisibility)*rng.Float64()*rng.Float64()
			if len(st.Sessions) == 0 {
				cov = cfg.MaxVisibility // one near-full-table session
			}
			sess := Session{Collector: cs.Name, PeerAS: v, visible: make(map[netip.Prefix]bool)}
			for _, p := range allPrefixes {
				if rng.Float64() < cov {
					sess.visible[p] = true
				}
			}
			st.Sessions = append(st.Sessions, sess)
		}
	}

	// --- Initial stable state on the pristine topology. ---
	// All tables go through the compiled route engine with one shared
	// scratch and per-origin result reuse: the event loop is
	// single-goroutine, so recomputes allocate almost nothing.
	g := s.graph.Clone()
	scratch := &topology.Scratch{}
	tables := make(map[bgp.ASN]*topology.CompiledRoutes)
	for _, o := range s.originASNs() {
		rt, err := g.RoutesInto(nil, scratch, nil, topology.Origin{ASN: o})
		if err != nil {
			return nil, err
		}
		tables[o] = rt
	}
	// known[si][prefix] is the path the session last announced.
	known := make([]map[netip.Prefix][]bgp.ASN, len(st.Sessions))
	for si := range st.Sessions {
		known[si] = make(map[netip.Prefix][]bgp.ASN)
		st.Initial[si] = make(map[netip.Prefix][]bgp.ASN)
		for p := range st.Sessions[si].visible {
			rt := tables[s.origins[p]]
			if path, ok := rt.PathFrom(st.Sessions[si].PeerAS); ok {
				st.Initial[si][p] = path
				known[si][p] = path
			}
		}
	}

	// --- Event schedule. ---
	events := s.schedule(cfg, rng, st)
	sort.SliceStable(events, func(i, j int) bool { return events[i].at.Before(events[j].at) })

	// failAffected[pairIdx] remembers which origins a failure touched so
	// the matching recovery recomputes the same set (a close
	// approximation that keeps recovery handling O(affected)).
	failAffected := make(map[int][]bgp.ASN)
	sessionUpAt := make([]time.Time, len(st.Sessions)) // zero = up

	originList := s.originASNs()

	// hijacked overrides the per-origin table for prefixes under an
	// active injected hijack (the victim and the attacker both originate
	// the prefix there); hijackAtk remembers each attack's attacker so
	// the table can be recomputed when churn shifts routing mid-attack.
	hijacked := make(map[netip.Prefix]*topology.CompiledRoutes)
	hijackAtk := make(map[netip.Prefix]bgp.ASN)
	tableFor := func(p netip.Prefix) *topology.CompiledRoutes {
		if rt, ok := hijacked[p]; ok {
			return rt
		}
		return tables[s.origins[p]]
	}

	emitPrefixChanges := func(t time.Time, p netip.Prefix) {
		rt := tableFor(p)
		for si := range st.Sessions {
			sess := &st.Sessions[si]
			if !sess.visible[p] {
				continue
			}
			if t.Before(sessionUpAt[si]) {
				continue // session down: the change is invisible
			}
			newPath, _ := rt.PathFrom(sess.PeerAS)
			if samePath(newPath, known[si][p]) {
				continue
			}
			// Transient exploration before settling.
			if newPath != nil && rng.Float64() < cfg.ExplorationProb {
				n := s.explorationPath(g, rt, sess.PeerAS, rng)
				if n != nil && !samePath(n, newPath) {
					// Int63n panics on a zero bound; validate rejects the
					// degenerate delay when exploration is on, and this
					// guard keeps a 1ns delay safe regardless.
					var dt time.Duration
					if half := int64(cfg.ConvergenceDelay) / 2; half > 0 {
						dt = time.Duration(rng.Int63n(half))
					}
					st.Updates = append(st.Updates, UpdateEvent{
						Time: t.Add(dt), Session: si, Prefix: p, Path: n,
					})
				}
			}
			st.Updates = append(st.Updates, UpdateEvent{
				Time: t.Add(cfg.ConvergenceDelay), Session: si, Prefix: p, Path: newPath,
			})
			if newPath == nil {
				delete(known[si], p)
			} else {
				known[si][p] = newPath
			}
		}
	}

	emitChanges := func(t time.Time, affected []bgp.ASN) {
		for _, o := range affected {
			for _, p := range s.prefixesOf(o) {
				emitPrefixChanges(t, p)
			}
		}
	}

	recompute := func(affected []bgp.ASN) error {
		for _, o := range affected {
			rt, err := g.RoutesInto(tables[o], scratch, nil, topology.Origin{ASN: o})
			if err != nil {
				return err
			}
			tables[o] = rt
		}
		return nil
	}

	// refreshHijacks recomputes the two-origin tables of every active
	// hijack after a topology event and emits the resulting path changes.
	// Without this the hijack tables keep pre-failure paths for the whole
	// attack window. Prefixes are walked in address order so the stream
	// stays deterministic, and emitPrefixChanges draws randomness only on
	// actual path changes, so unrelated events leave the stream untouched.
	refreshHijacks := func(t time.Time) error {
		if len(hijacked) == 0 {
			return nil
		}
		ps := make([]netip.Prefix, 0, len(hijacked))
		for p := range hijacked {
			ps = append(ps, p)
		}
		sortPrefixes(ps)
		for _, p := range ps {
			rt, err := g.RoutesInto(hijacked[p], scratch, nil,
				topology.Origin{ASN: s.origins[p]}, topology.Origin{ASN: hijackAtk[p]})
			if err != nil {
				return err
			}
			hijacked[p] = rt
			emitPrefixChanges(t, p)
		}
		return nil
	}

	// Vantage set for the observability pruning below.
	isVantage := make(map[bgp.ASN]bool, len(st.Sessions))
	for si := range st.Sessions {
		isVantage[st.Sessions[si].PeerAS] = true
	}
	// observable reports whether recomputing origin o's table for a
	// change of tree link (child→parent) can alter any session's view.
	// The link carries exactly the traffic of child's routing subtree;
	// when child is a customer-less non-vantage AS (a stub), that
	// subtree is {child} and contains no vantage, so the sessions'
	// paths toward o are untouched. The table is left stale for such
	// origins — harmless, because every consumer reads tables through
	// vantage paths only. This pruning is what keeps thousands of
	// origin-access-link flaps cheap.
	observable := func(child bgp.ASN) bool {
		if isVantage[child] {
			return true
		}
		a := g.AS(child)
		return a == nil || len(a.Customers()) > 0
	}

	for _, ev := range events {
		switch ev.kind {
		case evLinkDown:
			var affected []bgp.ASN
			for _, o := range originList {
				rt := tables[o]
				if ra, ok := rt.Route(ev.a); ok && ra.NextHop == ev.b && ra.Type != topology.RouteOrigin && observable(ev.a) {
					affected = append(affected, o)
					continue
				}
				if rb, ok := rt.Route(ev.b); ok && rb.NextHop == ev.a && rb.Type != topology.RouteOrigin && observable(ev.b) {
					affected = append(affected, o)
				}
			}
			g.RemoveLink(ev.a, ev.b)
			failAffected[ev.pairIdx] = affected
			if err := recompute(affected); err != nil {
				return nil, err
			}
			emitChanges(ev.at, affected)
			if err := refreshHijacks(ev.at); err != nil {
				return nil, err
			}
		case evLinkUp:
			if err := restoreLink(g, ev); err != nil {
				return nil, err
			}
			affected := failAffected[ev.pairIdx]
			if err := recompute(affected); err != nil {
				return nil, err
			}
			emitChanges(ev.at, affected)
			if err := refreshHijacks(ev.at); err != nil {
				return nil, err
			}
		case evPolicy:
			if _, linked := g.RelBetween(ev.a, ev.b); linked {
				g.RemoveLink(ev.a, ev.b)
			} else if err := g.AddPeering(ev.a, ev.b); err != nil {
				return nil, err
			}
			if err := recompute(originList); err != nil {
				return nil, err
			}
			emitChanges(ev.at, originList)
			if err := refreshHijacks(ev.at); err != nil {
				return nil, err
			}
		case evHijackStart:
			victim := s.origins[ev.pfx]
			rt, err := g.RoutesInto(hijacked[ev.pfx], scratch, nil,
				topology.Origin{ASN: victim}, topology.Origin{ASN: ev.b})
			if err != nil {
				return nil, err
			}
			hijacked[ev.pfx] = rt
			hijackAtk[ev.pfx] = ev.b
			st.Attacks = append(st.Attacks, AttackEvent{
				Prefix: ev.pfx, Victim: victim, Attacker: ev.b,
				Start: ev.at, End: ev.at.Add(ev.up),
			})
			emitPrefixChanges(ev.at, ev.pfx)
		case evHijackEnd:
			delete(hijacked, ev.pfx)
			delete(hijackAtk, ev.pfx)
			emitPrefixChanges(ev.at, ev.pfx)
		case evReset:
			up := ev.at.Add(ev.up)
			st.Resets = append(st.Resets, ResetEvent{Session: ev.si, Down: ev.at, Up: up})
			sessionUpAt[ev.si] = up
		case evTransfer:
			// Table transfer on re-establishment: the peer re-announces
			// its full table. The event fires at the up instant, so the
			// tables are read as they are *then* — routing changes during
			// the outage are re-announced, not lost. (They used to be read
			// at down time, silently dropping outage-window changes.)
			if ev.at.Before(sessionUpAt[ev.si]) {
				break // a longer overlapping reset still holds the session down
			}
			sess := &st.Sessions[ev.si]
			for _, p := range sess.VisiblePrefixes() {
				path, ok := tableFor(p).PathFrom(sess.PeerAS)
				if !ok {
					delete(known[ev.si], p)
					continue
				}
				st.Updates = append(st.Updates, UpdateEvent{
					Time: ev.at, Session: ev.si, Prefix: p, Path: path, Transfer: true,
				})
				known[ev.si][p] = path
			}
			if cfg.TransferCheck != nil {
				live := make(map[netip.Prefix][]bgp.ASN)
				for _, p := range sess.VisiblePrefixes() {
					if path, ok := tableFor(p).PathFrom(sess.PeerAS); ok {
						live[p] = path
					}
				}
				if err := cfg.TransferCheck(ev.si, ev.at, known[ev.si], live); err != nil {
					return nil, err
				}
			}
		}
	}

	sort.SliceStable(st.Updates, func(i, j int) bool { return st.Updates[i].Time.Before(st.Updates[j].Time) })
	sort.SliceStable(st.Resets, func(i, j int) bool { return st.Resets[i].Down.Before(st.Resets[j].Down) })
	return st, nil
}

// restoreLink re-adds a previously removed link with its original
// relationship.
func restoreLink(g *topology.Graph, ev event) error {
	if _, linked := g.RelBetween(ev.a, ev.b); linked {
		return nil // flap schedule overlap; already up
	}
	switch ev.rel {
	case topology.RelCustomer: // b was a's customer
		return g.AddLink(ev.a, ev.b)
	case topology.RelProvider:
		return g.AddLink(ev.b, ev.a)
	default:
		return g.AddPeering(ev.a, ev.b)
	}
}

// explorationPath builds a plausible transient path from vantage v: v
// temporarily routes through a non-best neighbor n, yielding v + n's path.
// Returns nil when no loop-free policy-compliant alternate exists.
func (s *Sim) explorationPath(g *topology.Graph, rt *topology.CompiledRoutes, v bgp.ASN, rng *rand.Rand) []bgp.ASN {
	neighbors := g.Neighbors(v)
	if len(neighbors) == 0 {
		return nil
	}
	start := rng.Intn(len(neighbors))
	for k := 0; k < len(neighbors); k++ {
		n := neighbors[(start+k)%len(neighbors)]
		best, ok := rt.Route(v)
		if ok && best.NextHop == n {
			continue
		}
		// Gao-Rexford export rule at n: customer and self-originated
		// routes go to every neighbor, but routes learned from a peer
		// or provider are only exported to n's customers — v hears
		// those only when n is v's provider. Without this check the
		// transient path can contain a valley no real update would.
		nr, ok := rt.Route(n)
		if !ok {
			continue
		}
		if rel, _ := g.RelBetween(v, n); rel != topology.RelProvider &&
			nr.Type != topology.RouteOrigin && nr.Type != topology.RouteCustomer {
			continue
		}
		sub, ok := rt.PathFrom(n)
		if !ok {
			continue
		}
		loop := false
		for _, a := range sub {
			if a == v {
				loop = true
				break
			}
		}
		if loop {
			continue
		}
		return append([]bgp.ASN{v}, sub...)
	}
	return nil
}

// schedule generates the run's event list (unsorted).
func (s *Sim) schedule(cfg Config, rng *rand.Rand, st *Stream) []event {
	var events []event
	end := cfg.Start.Add(cfg.Duration)
	pair := 0

	// Collect the link universe once.
	type link struct {
		a, b bgp.ASN
		rel  topology.Rel
	}
	var links []link
	var biasedLinks []link
	biasSet := make(map[bgp.ASN]bool, len(cfg.BiasOrigins))
	for _, a := range cfg.BiasOrigins {
		biasSet[a] = true
	}
	for _, asn := range s.graph.ASNs() {
		a := s.graph.AS(asn)
		for _, c := range a.Customers() {
			l := link{a: asn, b: c, rel: topology.RelCustomer}
			links = append(links, l)
			if biasSet[asn] || biasSet[c] {
				biasedLinks = append(biasedLinks, l)
			}
		}
		for _, p := range a.Peers() {
			if asn < p {
				l := link{a: asn, b: p, rel: topology.RelPeer}
				links = append(links, l)
				if biasSet[asn] || biasSet[p] {
					biasedLinks = append(biasedLinks, l)
				}
			}
		}
	}

	pick := func() link {
		if len(biasedLinks) > 0 && rng.Float64() < cfg.BiasFraction {
			return biasedLinks[rng.Intn(len(biasedLinks))]
		}
		return links[rng.Intn(len(links))]
	}

	// Ordinary failures with exponential outage durations.
	for i := 0; i < cfg.LinkFailures && len(links) > 0; i++ {
		l := pick()
		at := cfg.Start.Add(time.Duration(rng.Int63n(int64(cfg.Duration))))
		outage := time.Duration(rng.ExpFloat64() * float64(cfg.MeanOutage))
		if outage < time.Second {
			outage = time.Second
		}
		upAt := at.Add(outage)
		if upAt.After(end) {
			upAt = end
		}
		events = append(events,
			event{at: at, kind: evLinkDown, a: l.a, b: l.b, rel: l.rel, pairIdx: pair},
			event{at: upAt, kind: evLinkUp, a: l.a, b: l.b, rel: l.rel, pairIdx: pair})
		pair++
	}

	// Flap episodes: one link cycles many times. Cycle counts are drawn
	// log-uniformly so a few prefixes see enormous churn (the paper's
	// 2000x tail) while most see little.
	for i := 0; i < cfg.FlapEpisodes && len(links) > 0; i++ {
		l := pick()
		cycles := int(math.Exp(rng.Float64() * math.Log(float64(max(4, cfg.MaxFlapCycles)))))
		if cycles < 2 {
			cycles = 2
		}
		at := cfg.Start.Add(time.Duration(rng.Int63n(int64(cfg.Duration))))
		for c := 0; c < cycles && at.Before(end); c++ {
			gap := time.Duration((0.5 + rng.Float64()) * float64(cfg.FlapInterval))
			downFor := gap / 2
			upAt := at.Add(downFor)
			if upAt.After(end) {
				upAt = end
			}
			events = append(events,
				event{at: at, kind: evLinkDown, a: l.a, b: l.b, rel: l.rel, pairIdx: pair},
				event{at: upAt, kind: evLinkUp, a: l.a, b: l.b, rel: l.rel, pairIdx: pair})
			pair++
			at = upAt.Add(gap)
		}
	}

	// Origin access-link churn: a multihomed origin AS loses one of its
	// provider links for a while. Single-homed origins are skipped — a
	// withdraw/re-announce of the identical path is not a path change.
	var multihomed []bgp.ASN
	for _, o := range s.originASNs() {
		if len(s.graph.AS(o).Providers()) >= 2 {
			multihomed = append(multihomed, o)
		}
	}
	outage := cfg.OriginOutage
	if outage <= 0 {
		outage = 30 * time.Minute
	}
	for i := 0; i < cfg.OriginChurnEvents && len(multihomed) > 0; i++ {
		o := multihomed[rng.Intn(len(multihomed))]
		provs := s.graph.AS(o).Providers()
		p := provs[rng.Intn(len(provs))]
		at := cfg.Start.Add(time.Duration(rng.Int63n(int64(cfg.Duration))))
		d := time.Duration(rng.ExpFloat64() * float64(outage))
		if d < time.Minute {
			d = time.Minute
		}
		upAt := at.Add(d)
		if upAt.After(end) {
			upAt = end
		}
		events = append(events,
			event{at: at, kind: evLinkDown, a: p, b: o, rel: topology.RelCustomer, pairIdx: pair},
			event{at: upAt, kind: evLinkUp, a: p, b: o, rel: topology.RelCustomer, pairIdx: pair})
		pair++
	}

	// Rare policy shifts between random transit ASes.
	t2 := s.graph.TierASNs(2)
	for i := 0; i < cfg.PolicyEvents && len(t2) >= 2; i++ {
		a := t2[rng.Intn(len(t2))]
		b := t2[rng.Intn(len(t2))]
		if a == b {
			continue
		}
		at := cfg.Start.Add(time.Duration(rng.Int63n(int64(cfg.Duration))))
		events = append(events, event{at: at, kind: evPolicy, a: a, b: b})
	}

	// Injected hijacks against the target prefixes.
	if cfg.InjectHijacks > 0 {
		targets := cfg.HijackTargets
		if len(targets) == 0 {
			biasSet := make(map[bgp.ASN]bool, len(cfg.BiasOrigins))
			for _, a := range cfg.BiasOrigins {
				biasSet[a] = true
			}
			for p, o := range s.origins {
				if len(cfg.BiasOrigins) == 0 || biasSet[o] {
					targets = append(targets, p)
				}
			}
			sortPrefixes(targets)
		}
		dur := cfg.HijackDuration
		if dur <= 0 {
			dur = 20 * time.Minute
		}
		all := s.graph.ASNs()
		for i := 0; i < cfg.InjectHijacks && len(targets) > 0; i++ {
			p := targets[rng.Intn(len(targets))]
			attacker := all[rng.Intn(len(all))]
			if attacker == s.origins[p] {
				continue
			}
			at := cfg.Start.Add(time.Duration(rng.Int63n(int64(cfg.Duration))))
			d := time.Duration((0.5 + rng.Float64()) * float64(dur))
			if at.Add(d).After(end) {
				d = end.Sub(at)
			}
			if d <= 0 {
				continue
			}
			events = append(events,
				event{at: at, kind: evHijackStart, b: attacker, pfx: p, up: d},
				event{at: at.Add(d), kind: evHijackEnd, pfx: p})
		}
	}

	// Session resets (roughly Poisson per session). Each reset schedules
	// its table transfer as a separate event at the re-establishment
	// time, so the transfer reads the tables of that instant.
	for si := range st.Sessions {
		n := poisson(rng, cfg.ResetsPerSessionMean)
		for i := 0; i < n; i++ {
			at := cfg.Start.Add(time.Duration(rng.Int63n(int64(cfg.Duration))))
			down := 30*time.Second + time.Duration(rng.Int63n(int64(90*time.Second)))
			events = append(events,
				event{at: at, kind: evReset, si: si, up: down},
				event{at: at.Add(down), kind: evTransfer, si: si})
		}
	}
	return events
}

func poisson(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	// Knuth's product method needs exp(-mean) > 0; for mean ≳ 700 it
	// underflows to 0 and the loop only terminates once p itself
	// underflows, returning a garbage count (~700 regardless of mean).
	// Large means use the normal limit N(mean, mean) instead, which is
	// an excellent approximation well before the cutoff.
	if mean > 500 {
		k := int(math.Round(mean + math.Sqrt(mean)*rng.NormFloat64()))
		if k < 0 {
			k = 0
		}
		return k
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

package bgpsim

import (
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"slices"
	"time"

	"quicksand/internal/bgp"
	"quicksand/internal/par"
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
	pid  int32         // pfx's id, -1 when no origin announces it
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

// monthWorkers is how many goroutines an event's table recomputes fan out
// to; below 1 it means runtime.GOMAXPROCS(0). Tests pin it to show that
// the stream does not depend on it.
var monthWorkers int

// fanOutMin is the fewest origins an event must touch for its recomputes
// to fan out; smaller events stay on the event loop's goroutine.
const fanOutMin = 8

// Run executes the simulation and returns the observed stream.
func (s *Sim) Run(cfg Config) (*Stream, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := par.NewRand(cfg.Seed)
	end := cfg.Start.Add(cfg.Duration)

	st := &Stream{Start: cfg.Start, End: end, Initial: make(map[int]map[netip.Prefix][]bgp.ASN)}

	// --- Sessions: vantage ASes drawn from the transit core. ---
	vantagePool := append(s.graph.TierASNs(1), s.graph.TierASNs(2)...)
	if len(vantagePool) == 0 {
		vantagePool = s.graph.ASNs()
	}
	// vis[si][pid] and visIDs[si] (ascending, so in address order) are the
	// session's visibility by prefix id; the Session keeps its map for Sees.
	var vis [][]bool
	var visIDs [][]int32
	for _, cs := range cfg.Collectors {
		for i := 0; i < cs.Sessions; i++ {
			v := vantagePool[rng.Intn(len(vantagePool))]
			cov := cfg.MinVisibility + (cfg.MaxVisibility-cfg.MinVisibility)*rng.Float64()*rng.Float64()
			if len(st.Sessions) == 0 {
				cov = cfg.MaxVisibility // one near-full-table session
			}
			sess := Session{Collector: cs.Name, PeerAS: v, visible: make(map[netip.Prefix]bool)}
			seen, ids := make([]bool, len(s.prefixes)), []int32(nil)
			for pid, p := range s.prefixes {
				if rng.Float64() < cov {
					sess.visible[p], seen[pid] = true, true
					ids = append(ids, int32(pid))
				}
			}
			st.Sessions = append(st.Sessions, sess)
			vis, visIDs = append(vis, seen), append(visIDs, ids)
		}
	}
	nS := len(st.Sessions)
	sessionUpAt := make([]time.Time, nS) // zero = up
	up := func(t time.Time, si int) bool { return !t.Before(sessionUpAt[si]) }

	// --- Route tables, one per origin, recomputed per event. ---
	// The AS set is fixed for the month (link events remove and re-add
	// links between existing ASes), so every compiled snapshot interns the
	// same ids and a table from an older snapshot is read by id.
	g := s.graph.Clone()
	ids := g.Compiled()
	workers := par.Workers(monthWorkers)
	scratches := make([]topology.Scratch, workers)
	tables := make([]*topology.CompiledRoutes, len(s.asns))
	// paths[k*nS+si] is session si's path from the table recompute just
	// made for origin aff[k]: taken once per (origin, session), nil when
	// the session is down or sees none of the origin's prefixes.
	var paths [][]bgp.ASN
	recompute := func(t time.Time, aff []int32) error {
		paths = slices.Grow(paths[:0], len(aff)*nS)[:len(aff)*nS]
		w := 1
		if len(aff) >= fanOutMin {
			w = workers
			g.Compiled() // compile once, before the workers share the graph
		}
		return par.ForEachWorker(w, len(aff), func(wi, k int) error {
			oi := aff[k]
			rt, err := g.RoutesInto(tables[oi], &scratches[wi], nil, topology.Origin{ASN: s.asns[oi]})
			if err != nil {
				return err
			}
			tables[oi] = rt
			for si := range st.Sessions {
				var path []bgp.ASN
				if up(t, si) && slices.ContainsFunc(s.idsOf[oi], func(pid int32) bool { return vis[si][pid] }) {
					path, _ = rt.PathFrom(st.Sessions[si].PeerAS)
				}
				paths[k*nS+si] = path
			}
			return nil
		})
	}

	// --- Initial stable state on the pristine topology. ---
	all := make([]int32, len(s.asns))
	for oi := range all {
		all[oi] = int32(oi)
	}
	if err := recompute(cfg.Start, all); err != nil {
		return nil, err
	}
	// known[si][pid] is the path the session last announced, nil for none.
	known := make([][][]bgp.ASN, nS)
	for si := range st.Sessions {
		known[si] = make([][]bgp.ASN, len(s.prefixes))
		st.Initial[si] = make(map[netip.Prefix][]bgp.ASN)
		for _, pid := range visIDs[si] {
			if path := paths[int(s.originOf[pid])*nS+si]; path != nil {
				st.Initial[si][s.prefixes[pid]] = path
				known[si][pid] = path
			}
		}
	}

	// --- Event schedule. ---
	events := s.schedule(cfg, rng, st)
	slices.SortStableFunc(events, func(a, b event) int { return a.at.Compare(b.at) })

	// failAffected[pairIdx] remembers which origins a failure touched so
	// the matching recovery recomputes the same set (a close
	// approximation that keeps recovery handling O(affected)).
	failAffected := make(map[int][]int32)

	// hijacks holds, by prefix id, the two-origin table of every prefix
	// under an active injected hijack (the victim and the attacker both
	// originate it there) and its attacker, so the table can be
	// recomputed when churn shifts routing mid-attack.
	type hijack struct {
		rt  *topology.CompiledRoutes
		atk bgp.ASN
	}
	hijacks := make(map[int32]*hijack)
	tableFor := func(pid int32) *topology.CompiledRoutes {
		if h := hijacks[pid]; h != nil {
			return h.rt
		}
		return tables[s.originOf[pid]]
	}

	// emit announces newPath for prefix pid on session si, read off rt,
	// when it differs from what the session last announced.
	var nbrs []bgp.ASN
	emit := func(t time.Time, si int, pid int32, rt *topology.CompiledRoutes, newPath []bgp.ASN) {
		if slices.Equal(newPath, known[si][pid]) {
			return
		}
		p := s.prefixes[pid]
		// Transient exploration before settling.
		if newPath != nil && rng.Float64() < cfg.ExplorationProb {
			n := s.explorationPath(g, rt, st.Sessions[si].PeerAS, rng, &nbrs)
			if n != nil && !slices.Equal(n, newPath) {
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
		known[si][pid] = newPath
	}

	emitPrefixChanges := func(t time.Time, pid int32) {
		rt := tableFor(pid)
		for si := range st.Sessions {
			if vis[si][pid] && up(t, si) { // a down session does not see the change
				newPath, _ := rt.PathFrom(st.Sessions[si].PeerAS)
				emit(t, si, pid, rt, newPath)
			}
		}
	}

	// emitChanges emits the changes of the origins recompute just
	// refreshed, in (origin, prefix, session) order, from the paths it took.
	emitChanges := func(t time.Time, aff []int32) {
		for k, oi := range aff {
			for _, pid := range s.idsOf[oi] {
				if hijacks[pid] != nil {
					emitPrefixChanges(t, pid) // a hijacked prefix reads its two-origin table
					continue
				}
				for si := range st.Sessions {
					if vis[si][pid] && up(t, si) {
						emit(t, si, pid, tables[oi], paths[k*nS+si])
					}
				}
			}
		}
	}

	// refreshHijacks recomputes the two-origin tables of every active
	// hijack after a topology event and emits the resulting path changes.
	// Without this the hijack tables keep pre-failure paths for the whole
	// attack window. Prefixes are walked in address order so the stream
	// stays deterministic, and emit draws randomness only on actual path
	// changes, so unrelated events leave the stream untouched.
	var active []int32
	refreshHijacks := func(t time.Time) error {
		active = active[:0]
		for pid := range hijacks {
			active = append(active, pid)
		}
		slices.Sort(active)
		for _, pid := range active {
			h := hijacks[pid]
			rt, err := g.RoutesInto(h.rt, &scratches[0], nil,
				topology.Origin{ASN: s.asns[s.originOf[pid]]}, topology.Origin{ASN: h.atk})
			if err != nil {
				return err
			}
			h.rt = rt
			emitPrefixChanges(t, pid)
		}
		return nil
	}

	// Vantage set for the observability pruning below.
	isVantage := make(map[bgp.ASN]bool, nS)
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
			ia, _ := ids.ID(ev.a)
			ib, _ := ids.ID(ev.b)
			obsA, obsB := observable(ev.a), observable(ev.b)
			var affected []int32
			for oi, rt := range tables {
				// RouteNone and RouteOrigin sort below the learned types.
				ra, rb := rt.At(int(ia)), rt.At(int(ib))
				if obsA && ra.Type > topology.RouteOrigin && ra.NextHop == ev.b ||
					obsB && rb.Type > topology.RouteOrigin && rb.NextHop == ev.a {
					affected = append(affected, int32(oi))
				}
			}
			g.RemoveLink(ev.a, ev.b)
			failAffected[ev.pairIdx] = affected
			if err := recompute(ev.at, affected); err != nil {
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
			if err := recompute(ev.at, affected); err != nil {
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
			if err := recompute(ev.at, all); err != nil {
				return nil, err
			}
			emitChanges(ev.at, all)
			if err := refreshHijacks(ev.at); err != nil {
				return nil, err
			}
		case evHijackStart:
			if ev.pid < 0 {
				return nil, fmt.Errorf("bgpsim: hijack target %v is not originated", ev.pfx)
			}
			h := hijacks[ev.pid]
			if h == nil {
				h = &hijack{}
				hijacks[ev.pid] = h
			}
			victim := s.asns[s.originOf[ev.pid]]
			rt, err := g.RoutesInto(h.rt, &scratches[0], nil,
				topology.Origin{ASN: victim}, topology.Origin{ASN: ev.b})
			if err != nil {
				return nil, err
			}
			h.rt, h.atk = rt, ev.b
			st.Attacks = append(st.Attacks, AttackEvent{
				Prefix: ev.pfx, Victim: victim, Attacker: ev.b,
				Start: ev.at, End: ev.at.Add(ev.up),
			})
			emitPrefixChanges(ev.at, ev.pid)
		case evHijackEnd:
			delete(hijacks, ev.pid)
			emitPrefixChanges(ev.at, ev.pid)
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
			peer := st.Sessions[ev.si].PeerAS
			for _, pid := range visIDs[ev.si] {
				path, _ := tableFor(pid).PathFrom(peer)
				known[ev.si][pid] = path
				if path != nil {
					st.Updates = append(st.Updates, UpdateEvent{
						Time: ev.at, Session: ev.si, Prefix: s.prefixes[pid], Path: path, Transfer: true,
					})
				}
			}
			if cfg.TransferCheck != nil {
				knownM, live := make(map[netip.Prefix][]bgp.ASN), make(map[netip.Prefix][]bgp.ASN)
				for _, pid := range visIDs[ev.si] {
					if known[ev.si][pid] != nil {
						knownM[s.prefixes[pid]] = known[ev.si][pid]
					}
					if path, ok := tableFor(pid).PathFrom(peer); ok {
						live[s.prefixes[pid]] = path
					}
				}
				if err := cfg.TransferCheck(ev.si, ev.at, knownM, live); err != nil {
					return nil, err
				}
			}
		}
	}

	slices.SortStableFunc(st.Updates, func(a, b UpdateEvent) int { return a.Time.Compare(b.Time) })
	slices.SortStableFunc(st.Resets, func(a, b ResetEvent) int { return a.Down.Compare(b.Down) })
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
func (s *Sim) explorationPath(g *topology.Graph, rt *topology.CompiledRoutes, v bgp.ASN, rng *rand.Rand, buf *[]bgp.ASN) []bgp.ASN {
	// The neighbors in ascending order, as Graph.Neighbors lists them, but
	// in a buffer the run reuses.
	neighbors := (*buf)[:0]
	if a := g.AS(v); a != nil {
		neighbors = append(append(append(neighbors, a.Customers()...), a.Peers()...), a.Providers()...)
		slices.Sort(neighbors)
	}
	*buf = neighbors
	if len(neighbors) == 0 {
		return nil
	}
	best, hasBest := rt.Route(v)
	start := rng.Intn(len(neighbors))
	for k := 0; k < len(neighbors); k++ {
		n := neighbors[(start+k)%len(neighbors)]
		if hasBest && best.NextHop == n {
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
	for _, o := range s.asns {
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
			slices.SortFunc(targets, bgp.ComparePrefix)
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
			pid, found := slices.BinarySearchFunc(s.prefixes, p, bgp.ComparePrefix)
			if !found {
				pid = -1
			}
			events = append(events,
				event{at: at, kind: evHijackStart, b: attacker, pfx: p, pid: int32(pid), up: d},
				event{at: at.Add(d), kind: evHijackEnd, pfx: p, pid: int32(pid)})
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

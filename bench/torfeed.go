package main

import (
	"fmt"
	"math/rand"
	"net/netip"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"quicksand"
	"quicksand/internal/bgp"
	"quicksand/internal/bgpsim"
)

// The torfeed load shape. Tor prefixes take 35 % of the updates though
// they are a quarter of the prefixes, so each churns more than a
// background prefix does — the paper's Figure 3 (left) finding.
const (
	burstSize    = 64  // updates per pre-encoded burst, one write each
	poolBursts   = 256 // bursts per session, replayed cyclically
	watchedFrac  = 0.35
	withdrawFrac = 0.10

	steadyRate     = 100000.0 // updates/s over all sessions, open loop
	tracerInterval = 5 * time.Millisecond
	pollInterval   = time.Millisecond

	// childASN makes the daemon a 4-octet speaker: at serve's default
	// ASN the session is 2-octet and every tracer origin would arrive as
	// AS_TRANS, indistinguishable from the next.
	childASN   = 4200000000
	tracerBase = bgp.ASN(childASN + 1)
)

// loadSessions is the number of BGP sessions the load workloads open.
func loadSessions() int { return min(runtime.NumCPU(), 2) }

// paperWorld builds the paper-scale world for seed.
func paperWorld(seed int64) (*quicksand.World, error) {
	cfg := quicksand.DefaultWorldConfig()
	cfg.Seed, cfg.Topology.Seed, cfg.Consensus.Seed = seed, seed, seed
	return quicksand.BuildWorld(cfg)
}

// torList returns the world's Tor prefixes in address order and the
// watchlist mapping each to its legitimate origin.
func torList(w *quicksand.World) ([]netip.Prefix, map[netip.Prefix]bgp.ASN) {
	tor := make([]netip.Prefix, 0, len(w.TorPrefixes))
	watch := make(map[netip.Prefix]bgp.ASN, len(w.TorPrefixes))
	for p := range w.TorPrefixes {
		tor = append(tor, p)
		watch[p] = w.Origins[p]
	}
	sortPrefixes(tor)
	return tor, watch
}

func sortPrefixes(ps []netip.Prefix) {
	sort.Slice(ps, func(i, j int) bool {
		if c := ps[i].Addr().Compare(ps[j].Addr()); c != 0 {
			return c < 0
		}
		return ps[i].Bits() < ps[j].Bits()
	})
}

// writeWatchFile writes the -watch file serve reads.
func writeWatchFile(path string, watch map[netip.Prefix]bgp.ASN) error {
	prefixes := make([]netip.Prefix, 0, len(watch))
	for p := range watch {
		prefixes = append(prefixes, p)
	}
	sortPrefixes(prefixes)
	var b strings.Builder
	for _, p := range prefixes {
		fmt.Fprintf(&b, "%s %d\n", p, uint32(watch[p]))
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// feed is the seeded torfeed input: per session, a pool of updates with
// legitimate origins and valley-free paths, kept both decoded (for the
// in-process layer probes) and encoded (for the wire).
type feed struct {
	world   *quicksand.World
	tor     []netip.Prefix
	watch   map[netip.Prefix]bgp.ASN
	vantage []bgp.ASN              // the AS each session peers from
	events  [][]bgpsim.UpdateEvent // [session] pool in send order
	bursts  [][][]byte             // [session][burst] encoded, 4-octet AS_PATH
	bgCount [][]int                // [session][burst] background updates in the burst
	// tracerOffset rotates which Tor prefix the first tracer hijacks.
	tracerOffset int
}

func buildFeed(seed int64, sessions int) (*feed, error) {
	w, err := paperWorld(seed)
	if err != nil {
		return nil, err
	}
	f := &feed{world: w}
	f.tor, f.watch = torList(w)
	var bg []netip.Prefix
	for p := range w.Origins {
		if _, isTor := f.watch[p]; !isTor {
			bg = append(bg, p)
		}
	}
	sortPrefixes(bg)
	if len(f.tor) == 0 || len(bg) == 0 {
		return nil, fmt.Errorf("torfeed: world has %d Tor and %d background prefixes", len(f.tor), len(bg))
	}

	rng := rand.New(rand.NewSource(seed))
	asns := w.Topology.ASNs()
	f.tracerOffset = rng.Intn(len(f.tor))
	for _, vi := range rng.Perm(len(asns))[:sessions] {
		vantage := asns[vi]
		events := make([]bgpsim.UpdateEvent, 0, poolBursts*burstSize)
		bursts := make([][]byte, 0, poolBursts)
		bgCount := make([]int, 0, poolBursts)
		for b := 0; b < poolBursts; b++ {
			var raw []byte
			nbg := 0
			for i := 0; i < burstSize; i++ {
				var prefix netip.Prefix
				if rng.Float64() < watchedFrac {
					prefix = f.tor[rng.Intn(len(f.tor))]
				} else {
					prefix = bg[rng.Intn(len(bg))]
					nbg++
				}
				ev := bgpsim.UpdateEvent{Session: len(f.vantage), Prefix: prefix}
				u := bgp.Update{Withdrawn: []netip.Prefix{prefix}}
				if rng.Float64() >= withdrawFrac {
					path, ok, err := w.RouteCache().PathFrom(vantage, w.Origins[prefix])
					if err != nil {
						return nil, err
					}
					if !ok {
						return nil, fmt.Errorf("torfeed: no route from %v to %v", vantage, w.Origins[prefix])
					}
					ev.Path = path
					u = announce(prefix, path)
				}
				if raw, err = u.AppendMessage(raw, true); err != nil {
					return nil, err
				}
				events = append(events, ev)
			}
			bursts = append(bursts, raw)
			bgCount = append(bgCount, nbg)
		}
		f.vantage = append(f.vantage, vantage)
		f.events = append(f.events, events)
		f.bursts = append(f.bursts, bursts)
		f.bgCount = append(f.bgCount, bgCount)
	}
	return f, nil
}

// tracerPrefix is the Tor prefix tracer i hijacks: round-robin over the
// whole watchlist, so every fleet shard sees tracers.
func (f *feed) tracerPrefix(i int) netip.Prefix {
	return f.tor[(f.tracerOffset+i)%len(f.tor)]
}

// tracerPath is tracer i's AS path: session 0's vantage, then an origin
// no other update carries.
func (f *feed) tracerPath(i int) []bgp.ASN {
	return []bgp.ASN{f.vantage[0], tracerBase + bgp.ASN(i)}
}

// appendTracer encodes tracer i's hijack announcement onto dst.
func (f *feed) appendTracer(dst []byte, i int) ([]byte, error) {
	u := announce(f.tracerPrefix(i), f.tracerPath(i))
	return u.AppendMessage(dst, true)
}

// announce is the UPDATE announcing prefix over path.
func announce(prefix netip.Prefix, path []bgp.ASN) bgp.Update {
	return bgp.Update{
		NLRI: []netip.Prefix{prefix},
		Attrs: bgp.PathAttributes{
			HasOrigin: true, Origin: bgp.OriginIGP,
			HasASPath: true, ASPath: bgp.Sequence(path...),
			NextHop: netip.AddrFrom4([4]byte{203, 0, 113, 1}),
		},
	}
}

package monitord

import (
	"encoding/binary"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"quicksand/internal/bgp"
	"quicksand/internal/iptrie"
)

// Route is one session's live path for a prefix.
type Route struct {
	Session int
	Path    []bgp.ASN
	Updated time.Time
}

// RIBEntry is the live state of one prefix: every session's current path.
// Snapshots returned by lookups are copies and safe to retain.
type RIBEntry struct {
	Prefix netip.Prefix
	Routes []Route // ascending session id
}

// Best returns the entry's best path under the collector's simple rule:
// shortest AS path, ties broken by lowest session id. Every route in an
// entry is live (apply deletes a withdrawn session's), so a present but
// empty AS_PATH is the shortest there is. ok is false only for an entry
// with no routes.
func (e *RIBEntry) Best() (Route, bool) {
	if len(e.Routes) == 0 {
		return Route{}, false
	}
	best := 0
	for i, r := range e.Routes {
		if len(r.Path) < len(e.Routes[best].Path) {
			best = i
		}
	}
	return e.Routes[best], true
}

// liveRIB is the daemon's sharded routing table: prefix -> per-session
// path state over internal/iptrie. Each shard is guarded by its own
// RWMutex; the dispatcher routes every update for a prefix to the same
// shard, so writes per shard come from a single worker while HTTP
// lookups take read locks. The RIB owns its storage: it copies every path
// into a route's own capacity and never retains an argument.
type liveRIB struct {
	shards []ribShard
}

type ribShard struct {
	mu   sync.RWMutex
	trie iptrie.Trie[*ribRoutes]
	size atomic.Int64 // written under mu, read without: a scrape never waits on a shard
	// spare holds the route sets of prefixes that left the table: the next
	// prefix inserted reuses their route and path capacity.
	spare []*ribRoutes
}

// ribRoutes is one prefix's live routes in ascending session id. Slots
// past len keep the path capacity of routes that were withdrawn.
type ribRoutes struct {
	routes []Route
}

func newLiveRIB(shards int) *liveRIB {
	return &liveRIB{shards: make([]ribShard, shards)}
}

// shardOf maps a prefix to its shard by FNV-1a over the masked address
// bytes and the prefix length.
func (r *liveRIB) shardOf(p netip.Prefix) int {
	a := p.Addr().As4()
	k := binary.BigEndian.Uint32(a[:]) &^ (^uint32(0) >> p.Bits())
	h := uint32(2166136261)
	for shift := 24; shift >= 0; shift -= 8 {
		h = (h ^ (k >> shift & 0xff)) * 16777619
	}
	h = (h ^ uint32(p.Bits())) * 16777619
	return int(h % uint32(len(r.shards)))
}

// apply folds one update into its shard; the caller holds mu. An
// announcement replaces the session's path (copied, never kept), a
// withdrawal (nil path) removes it, and a prefix whose last session
// withdraws leaves the table entirely. A non-nil empty path is a legal
// announcement (AS_PATH present with zero segments) and is stored.
func (sh *ribShard) apply(t time.Time, session int, prefix netip.Prefix, path []bgp.ASN) {
	rs, ok := sh.trie.Get(prefix)
	i := 0
	for ok && i < len(rs.routes) && rs.routes[i].Session < session {
		i++
	}
	found := ok && i < len(rs.routes) && rs.routes[i].Session == session
	if path == nil {
		if !found {
			return
		}
		// Park the slot past the end: its path capacity serves the next
		// session announced here.
		gone, last := rs.routes[i], len(rs.routes)-1
		copy(rs.routes[i:], rs.routes[i+1:])
		rs.routes[last] = gone
		rs.routes = rs.routes[:last]
		if last == 0 {
			if removed, _ := sh.trie.Delete(prefix); removed {
				sh.size.Add(-1)
				sh.spare = append(sh.spare, rs)
			}
		}
		return
	}
	if !ok {
		if n := len(sh.spare); n > 0 {
			rs, sh.spare = sh.spare[n-1], sh.spare[:n-1]
		} else {
			rs = new(ribRoutes)
		}
		if added, err := sh.trie.Insert(prefix, rs); err != nil {
			return // non-IPv4 prefix; the decode layer never produces one
		} else if added {
			sh.size.Add(1)
		}
	}
	if !found {
		// Open slot i, taking over a parked slot's path capacity.
		n := len(rs.routes)
		if n < cap(rs.routes) {
			rs.routes = rs.routes[:n+1]
		} else {
			rs.routes = append(rs.routes, Route{})
		}
		parked := rs.routes[n].Path
		copy(rs.routes[i+1:], rs.routes[i:n])
		rs.routes[i] = Route{Session: session, Path: parked}
	}
	rt := &rs.routes[i]
	rt.Path = append(rt.Path[:0], path...)
	rt.Updated = t
}

func snapshotEntry(p netip.Prefix, rs *ribRoutes) *RIBEntry {
	e := &RIBEntry{Prefix: p, Routes: make([]Route, len(rs.routes))}
	for i, rt := range rs.routes {
		// append onto a non-nil base so an empty-AS_PATH announcement
		// stays distinguishable from a withdrawal in the snapshot.
		rt.Path = append([]bgp.ASN{}, rt.Path...)
		e.Routes[i] = rt
	}
	return e
}

// Lookup returns the live entry stored at exactly prefix p.
func (r *liveRIB) Lookup(p netip.Prefix) (*RIBEntry, bool) {
	if !p.IsValid() || !p.Addr().Is4() {
		return nil, false
	}
	sh := &r.shards[r.shardOf(p)]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	rs, ok := sh.trie.Get(p)
	if !ok {
		return nil, false
	}
	return snapshotEntry(p.Masked(), rs), true
}

// LookupAddr returns the most specific live entry covering addr. Shards
// partition by prefix, so the longest match is taken across all of them.
func (r *liveRIB) LookupAddr(addr netip.Addr) (*RIBEntry, bool) {
	var best *RIBEntry
	bestBits := -1
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.RLock()
		if p, rs, ok := sh.trie.LongestMatch(addr); ok && p.Bits() > bestBits {
			best = snapshotEntry(p, rs)
			bestBits = p.Bits()
		}
		sh.mu.RUnlock()
	}
	return best, best != nil
}

// Size returns the number of prefixes with at least one live route.
func (r *liveRIB) Size() int {
	n := 0
	for i := range r.shards {
		n += int(r.shards[i].size.Load())
	}
	return n
}

// Walk visits a snapshot of every live entry, shard by shard.
func (r *liveRIB) Walk(fn func(*RIBEntry) bool) {
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.RLock()
		var entries []*RIBEntry
		sh.trie.Walk(func(p netip.Prefix, rs *ribRoutes) bool {
			entries = append(entries, snapshotEntry(p, rs))
			return true
		})
		sh.mu.RUnlock()
		for _, e := range entries {
			if !fn(e) {
				return
			}
		}
	}
}

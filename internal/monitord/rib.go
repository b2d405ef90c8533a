package monitord

import (
	"math/bits"
	"net/netip"
	"slices"
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
// path state. Every question the ingest path asks of it is exact, so each
// shard is a map keyed by iptrie.Key; only /rib?addr= asks for a longest
// match. Each shard is guarded by its own RWMutex; the dispatcher routes
// every update for a prefix to the same shard, so writes per shard come
// from a single worker while HTTP lookups take read locks. The RIB owns
// its storage: it copies every path into a route's own capacity and
// never retains an argument.
type liveRIB struct {
	shards []ribShard
}

// ribShard maps each prefix's key to its live routes in ascending session
// id. Slots past a slice's len keep the path capacity of routes that were
// withdrawn.
type ribShard struct {
	mu     sync.RWMutex
	routes map[uint64][]Route
	lens   uint64       // bit b set once a /b prefix is stored: the lengths LookupAddr probes
	size   atomic.Int64 // written under mu, read without: a scrape never waits on a shard
	// spare holds the route slices of prefixes that left the table: the
	// next prefix inserted reuses their route and path capacity.
	spare [][]Route
}

func newLiveRIB(shards int) *liveRIB {
	r := &liveRIB{shards: make([]ribShard, shards)}
	for i := range r.shards {
		r.shards[i].routes = make(map[uint64][]Route)
	}
	return r
}

// shardOf maps a prefix key to its shard by FNV-1a over the masked
// address bytes and the prefix length: the key's five low bytes, high
// byte first.
func (r *liveRIB) shardOf(k uint64) int {
	h := uint32(2166136261)
	for shift := 32; shift >= 0; shift -= 8 {
		h = (h ^ uint32(k>>shift&0xff)) * 16777619
	}
	return int(h % uint32(len(r.shards)))
}

// apply folds one update for the prefix with key k into its shard; the
// caller holds mu. An announcement replaces the session's path (copied,
// never kept), a withdrawal (nil path) removes it, and a prefix whose last
// session withdraws leaves the table entirely. A non-nil empty path is a
// legal announcement (AS_PATH present with zero segments) and is stored.
// The map holds the slice itself, so it is written back only when the
// slice's header changes.
func (sh *ribShard) apply(t time.Time, session int, k uint64, path []bgp.ASN) {
	rs, ok := sh.routes[k]
	i := 0
	for i < len(rs) && rs[i].Session < session {
		i++
	}
	found := i < len(rs) && rs[i].Session == session
	if path == nil {
		if !found {
			return
		}
		// Park the slot past the end: its path capacity serves the next
		// session announced here.
		gone, last := rs[i], len(rs)-1
		copy(rs[i:], rs[i+1:])
		rs[last] = gone
		if last == 0 {
			delete(sh.routes, k)
			sh.size.Add(-1)
			sh.spare = append(sh.spare, rs[:0])
		} else {
			sh.routes[k] = rs[:last]
		}
		return
	}
	if !ok {
		if n := len(sh.spare); n > 0 {
			rs, sh.spare = sh.spare[n-1], sh.spare[:n-1]
		}
		sh.size.Add(1)
		sh.lens |= 1 << (k & 0xff)
	}
	if !found {
		// Open slot i, taking over a parked slot's path capacity.
		n := len(rs)
		if n < cap(rs) {
			rs = rs[:n+1]
		} else {
			rs = append(rs, Route{})
		}
		parked := rs[n].Path
		copy(rs[i+1:], rs[i:n])
		rs[i] = Route{Session: session, Path: parked}
		sh.routes[k] = rs
	}
	rt := &rs[i]
	rt.Path = append(rt.Path[:0], path...)
	rt.Updated = t
}

func snapshotEntry(k uint64, rs []Route) *RIBEntry {
	e := &RIBEntry{Prefix: iptrie.KeyPrefix(k), Routes: make([]Route, len(rs))}
	for i, rt := range rs {
		// append onto a non-nil base so an empty-AS_PATH announcement
		// stays distinguishable from a withdrawal in the snapshot.
		rt.Path = append([]bgp.ASN{}, rt.Path...)
		e.Routes[i] = rt
	}
	return e
}

// Lookup returns the live entry stored at exactly prefix p.
func (r *liveRIB) Lookup(p netip.Prefix) (*RIBEntry, bool) {
	k, ok := iptrie.Key(p)
	if !ok {
		return nil, false
	}
	sh := &r.shards[r.shardOf(k)]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	rs, ok := sh.routes[k]
	if !ok {
		return nil, false
	}
	return snapshotEntry(k, rs), true
}

// LookupAddr returns the most specific live entry covering addr. Shards
// partition by prefix, so the longest match is taken across all of them,
// each probing only the lengths it has stored, longest first.
func (r *liveRIB) LookupAddr(addr netip.Addr) (*RIBEntry, bool) {
	a, ok := iptrie.Key(netip.PrefixFrom(addr, 32))
	if !ok {
		return nil, false
	}
	var best *RIBEntry
	bestBits := -1
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.RLock()
		for lens := sh.lens &^ (1<<(bestBits+1) - 1); lens != 0; {
			b := 63 - bits.LeadingZeros64(lens)
			lens &^= 1 << b
			k := iptrie.AddrKey(uint32(a>>8), b)
			if rs, ok := sh.routes[k]; ok {
				best, bestBits = snapshotEntry(k, rs), b
				break
			}
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

// Walk visits a snapshot of every live entry, shard by shard, each in key
// order: by address, then shorter first.
func (r *liveRIB) Walk(fn func(*RIBEntry) bool) {
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.RLock()
		keys := make([]uint64, 0, len(sh.routes))
		for k := range sh.routes {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		entries := make([]*RIBEntry, len(keys))
		for j, k := range keys {
			entries[j] = snapshotEntry(k, sh.routes[k])
		}
		sh.mu.RUnlock()
		for _, e := range entries {
			if !fn(e) {
				return
			}
		}
	}
}

package monitord

import (
	"net/netip"
	"sync"
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
// lookups take read locks.
type liveRIB struct {
	shards []ribShard
}

type ribShard struct {
	mu   sync.RWMutex
	trie iptrie.Trie[map[int]Route]
	size int
}

func newLiveRIB(shards int) *liveRIB {
	return &liveRIB{shards: make([]ribShard, shards)}
}

// shardOf maps a prefix to its shard by FNV-1a over the masked address
// bytes and the prefix length.
func (r *liveRIB) shardOf(p netip.Prefix) int {
	a := p.Masked().Addr().As4()
	h := uint32(2166136261)
	for _, b := range a {
		h = (h ^ uint32(b)) * 16777619
	}
	h = (h ^ uint32(p.Bits())) * 16777619
	return int(h % uint32(len(r.shards)))
}

// apply folds one update into the RIB: an announcement replaces the
// session's path, a withdrawal (nil path) removes it, and a prefix whose
// last session withdraws leaves the table entirely. A non-nil empty path
// is a legal announcement (AS_PATH present with zero segments) and is
// stored, not treated as a withdrawal.
func (r *liveRIB) apply(t time.Time, session int, prefix netip.Prefix, path []bgp.ASN) {
	sh := &r.shards[r.shardOf(prefix)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	routes, ok := sh.trie.Get(prefix)
	if path == nil {
		if !ok {
			return
		}
		delete(routes, session)
		if len(routes) == 0 {
			if removed, _ := sh.trie.Delete(prefix); removed {
				sh.size--
			}
		}
		return
	}
	if !ok {
		routes = make(map[int]Route, 1)
		if added, err := sh.trie.Insert(prefix, routes); err != nil {
			return // non-IPv4 prefix; the decode layer never produces one
		} else if added {
			sh.size++
		}
	}
	routes[session] = Route{Session: session, Path: path, Updated: t}
}

func snapshotEntry(p netip.Prefix, routes map[int]Route) *RIBEntry {
	e := &RIBEntry{Prefix: p, Routes: make([]Route, 0, len(routes))}
	for _, rt := range routes {
		cp := rt
		// append onto a non-nil base so an empty-AS_PATH announcement
		// stays distinguishable from a withdrawal in the snapshot.
		cp.Path = append([]bgp.ASN{}, rt.Path...)
		e.Routes = append(e.Routes, cp)
	}
	for i := 1; i < len(e.Routes); i++ {
		for j := i; j > 0 && e.Routes[j].Session < e.Routes[j-1].Session; j-- {
			e.Routes[j], e.Routes[j-1] = e.Routes[j-1], e.Routes[j]
		}
	}
	return e
}

// Lookup returns the live entry stored at exactly prefix p.
func (r *liveRIB) Lookup(p netip.Prefix) (*RIBEntry, bool) {
	sh := &r.shards[r.shardOf(p)]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	routes, ok := sh.trie.Get(p)
	if !ok {
		return nil, false
	}
	return snapshotEntry(p.Masked(), routes), true
}

// LookupAddr returns the most specific live entry covering addr. Shards
// partition by prefix, so the longest match is taken across all of them.
func (r *liveRIB) LookupAddr(addr netip.Addr) (*RIBEntry, bool) {
	var best *RIBEntry
	bestBits := -1
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.RLock()
		if p, routes, ok := sh.trie.LongestMatch(addr); ok && p.Bits() > bestBits {
			best = snapshotEntry(p, routes)
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
		sh := &r.shards[i]
		sh.mu.RLock()
		n += sh.size
		sh.mu.RUnlock()
	}
	return n
}

// Walk visits a snapshot of every live entry, shard by shard.
func (r *liveRIB) Walk(fn func(*RIBEntry) bool) {
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.RLock()
		var entries []*RIBEntry
		sh.trie.Walk(func(p netip.Prefix, routes map[int]Route) bool {
			entries = append(entries, snapshotEntry(p, routes))
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

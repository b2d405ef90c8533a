package topology

import (
	"sync"

	"quicksand/internal/bgp"
)

// RouteCache is a per-destination route-table cache over one graph,
// shared by defense.StaticOracle and the rotation study. It is versioned
// against the graph: any graph mutation drops every table on the next
// lookup. Callers asking for the same destination share one computation
// through a per-entry Once, and the map lock is not held while
// computing, so lookups of other destinations proceed. Safe for
// concurrent use.
type RouteCache struct {
	g *Graph

	mu      sync.Mutex
	version uint64
	entries map[bgp.ASN]*cacheEntry
}

type cacheEntry struct {
	once sync.Once
	cr   *CompiledRoutes
	err  error
}

// NewRouteCache returns an empty cache over g.
func NewRouteCache(g *Graph) *RouteCache {
	return &RouteCache{g: g, version: g.Version(), entries: make(map[bgp.ASN]*cacheEntry)}
}

// Routes returns the cached (or freshly computed, in the calling
// goroutine) unfiltered single-origin table toward dst at the graph's
// current version. Errors are cached like tables.
func (rc *RouteCache) Routes(dst bgp.ASN) (*CompiledRoutes, error) {
	rc.mu.Lock()
	if v := rc.g.Version(); v != rc.version {
		rc.entries = make(map[bgp.ASN]*cacheEntry, len(rc.entries))
		rc.version = v
	}
	e, ok := rc.entries[dst]
	if !ok {
		e = &cacheEntry{}
		rc.entries[dst] = e
	}
	rc.mu.Unlock()
	e.once.Do(func() { e.cr, e.err = rc.g.Routes(nil, Origin{ASN: dst}) })
	return e.cr, e.err
}

// PathFrom returns the best path from src toward dst per the cached
// table; ok=false means src has no route to dst.
func (rc *RouteCache) PathFrom(src, dst bgp.ASN) (path []bgp.ASN, ok bool, err error) {
	cr, err := rc.Routes(dst)
	if err != nil {
		return nil, false, err
	}
	path, ok = cr.PathFrom(src)
	return path, ok, nil
}

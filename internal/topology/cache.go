package topology

import (
	"sync"

	"quicksand/internal/bgp"
)

// VersionMemo is a concurrency-safe memo over one graph, versioned
// against it: any graph mutation drops every entry on the next lookup.
// Callers asking for the same key share one computation through a
// per-entry Once, and the map lock is not held while computing, so
// lookups of other keys proceed. It suits deterministic computations
// only — which caller populates an entry must not matter. RouteCache
// and resilience.Engine are its two users.
type VersionMemo[K comparable, V any] struct {
	g *Graph

	mu      sync.Mutex
	version uint64
	entries map[K]*memoEntry[V]
}

type memoEntry[V any] struct {
	once sync.Once
	v    V
	err  error
}

// NewVersionMemo returns an empty memo over g.
func NewVersionMemo[K comparable, V any](g *Graph) *VersionMemo[K, V] {
	return &VersionMemo[K, V]{g: g, version: g.Version(), entries: make(map[K]*memoEntry[V])}
}

// Graph returns the graph the memo is versioned against.
func (m *VersionMemo[K, V]) Graph() *Graph { return m.g }

// Get returns the value memoized under key at the graph's current
// version, running compute (in the calling goroutine) when there is
// none. Errors are memoized like values.
func (m *VersionMemo[K, V]) Get(key K, compute func() (V, error)) (V, error) {
	m.mu.Lock()
	if v := m.g.Version(); v != m.version {
		m.entries = make(map[K]*memoEntry[V], len(m.entries))
		m.version = v
	}
	e, ok := m.entries[key]
	if !ok {
		e = &memoEntry[V]{}
		m.entries[key] = e
	}
	m.mu.Unlock()
	e.once.Do(func() { e.v, e.err = compute() })
	return e.v, e.err
}

// RouteCache is a per-destination route-table cache over one graph: a
// VersionMemo of unfiltered single-origin tables, shared by
// defense.StaticOracle and the rotation study.
type RouteCache struct {
	memo *VersionMemo[bgp.ASN, *CompiledRoutes]
}

// NewRouteCache returns an empty cache over g.
func NewRouteCache(g *Graph) *RouteCache {
	return &RouteCache{memo: NewVersionMemo[bgp.ASN, *CompiledRoutes](g)}
}

// Graph returns the graph the cache serves.
func (rc *RouteCache) Graph() *Graph { return rc.memo.Graph() }

// Routes returns the cached (or freshly computed) unfiltered
// single-origin table toward dst.
func (rc *RouteCache) Routes(dst bgp.ASN) (*CompiledRoutes, error) {
	return rc.memo.Get(dst, func() (*CompiledRoutes, error) {
		return rc.memo.Graph().Routes(nil, Origin{ASN: dst})
	})
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

package topology

import "sync"

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// Routes computes a route table with the compiled engine, allocating a
// fresh result. Callers computing many tables should hold a Scratch and
// a previous result and use RoutesInto instead.
func (g *Graph) Routes(filter ImportFilter, origins ...Origin) (*CompiledRoutes, error) {
	return g.RoutesInto(nil, nil, filter, origins...)
}

// RoutesInto recomputes a route table in place: prev's arrays are reused
// when large enough (prev may be nil for a fresh table), and scratch
// holds the engine's working memory (nil draws from a pool). The result
// always reflects the graph's current state — the snapshot is recompiled
// first if the graph mutated.
func (g *Graph) RoutesInto(prev *CompiledRoutes, s *Scratch, filter ImportFilter, origins ...Origin) (*CompiledRoutes, error) {
	if s == nil {
		s = scratchPool.Get().(*Scratch)
		defer scratchPool.Put(s)
	}
	return g.Compiled().ComputeRoutesInto(prev, s, filter, origins...)
}

package bgpsim

import (
	"cmp"
	"slices"
	"time"

	"quicksand/internal/bgp"
)

// logChunk is how many updates one chunk of an updateLog holds.
const logChunk = 1 << 12

// updateLog collects a stream's updates in fixed-size chunks, so a
// growing log never copies what it already holds; the stream's slice is
// laid out once, at the end.
type updateLog struct {
	chunks [][]UpdateEvent
	n      int
}

func (l *updateLog) add(u UpdateEvent) {
	if l.n%logChunk == 0 {
		l.chunks = append(l.chunks, make([]UpdateEvent, 0, logChunk))
	}
	c := &l.chunks[len(l.chunks)-1]
	*c = append(*c, u)
	l.n++
}

// inOrder returns the updates in the order they were added.
func (l *updateLog) inOrder() []UpdateEvent {
	out := make([]UpdateEvent, 0, l.n)
	for _, c := range l.chunks {
		out = append(out, c...)
	}
	return out
}

// byTime returns the updates in time order, ties in the order they were
// added: one sort of keys, then one copy of each update.
func (l *updateLog) byTime() []UpdateEvent {
	keys := make([]timeKey, 0, l.n)
	for _, c := range l.chunks {
		for j := range c {
			keys = append(keys, keyOf(c[j].Time, len(keys)))
		}
	}
	slices.SortFunc(keys, compareKeys)
	out := make([]UpdateEvent, len(keys))
	for i, k := range keys {
		j := k.index()
		out[i] = l.chunks[j/logChunk][j%logChunk]
	}
	return out
}

// timeKey orders records by instant, then by index. That is a total
// order, so an unstable sort of keys lays records out exactly as a
// stable sort by time of the records in index order would, without
// moving a record.
type timeKey struct {
	sec int64
	lo  uint64 // nanosecond<<34 | index
}

func keyOf(t time.Time, i int) timeKey {
	return timeKey{t.Unix(), uint64(t.Nanosecond())<<34 | uint64(i)}
}

func (k timeKey) index() int { return int(k.lo & (1<<34 - 1)) }

func compareKeys(a, b timeKey) int {
	if c := cmp.Compare(a.sec, b.sec); c != 0 {
		return c
	}
	return cmp.Compare(a.lo, b.lo)
}

// slabLen is how many ASNs one block of a pathSlab holds.
const slabLen = 1 << 12

// pathSlab carves flattened AS paths out of shared blocks, so a stream's
// paths cost one allocation per block rather than one each. The paths
// are read-only, as UpdateEvent.Path and Stream.Initial require.
type pathSlab struct{ free []bgp.ASN }

func (s *pathSlab) flatten(p bgp.ASPath) []bgp.ASN {
	n := 0
	for _, seg := range p.Segments {
		n += len(seg.ASes)
	}
	if cap(s.free)-len(s.free) < n {
		s.free = make([]bgp.ASN, 0, max(slabLen, n))
	}
	path := bgp.FlattenPath(s.free[len(s.free):], p)
	s.free = s.free[:len(s.free)+len(path)]
	return slices.Clip(path)
}

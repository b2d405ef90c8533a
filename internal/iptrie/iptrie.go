// Package iptrie implements a binary radix trie over IPv4 prefixes with
// longest-prefix-match lookup.
//
// The paper maps every Tor relay IP to "the most specific BGP prefix that
// contained it" (its Tor prefix); this trie is the substrate for that
// mapping and for the per-AS routing tables in the BGP simulator. The
// zero value of Trie is ready to use.
package iptrie

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// node is one bit-level trie node. Prefixes are stored at the node whose
// depth equals the prefix length, following the address bits from the most
// significant bit down.
type node[V any] struct {
	child [2]*node[V]
	has   bool
	val   V
}

// Trie is a binary radix trie mapping IPv4 prefixes to values of type V.
// The zero value is an empty trie. Trie is not safe for concurrent
// mutation; concurrent read-only access is safe.
type Trie[V any] struct {
	root *node[V]
	size int
}

// key returns IPv4 address a as the word a walk consumes from the top bit
// down (child[k>>31], k <<= 1): derived once per operation, not per bit.
func key(a netip.Addr) uint32 {
	b := a.As4()
	return binary.BigEndian.Uint32(b[:])
}

func checkPrefix(p netip.Prefix) error {
	if !p.IsValid() {
		return fmt.Errorf("iptrie: invalid prefix %v", p)
	}
	if !p.Addr().Is4() {
		return fmt.Errorf("iptrie: prefix %v is not IPv4", p)
	}
	return nil
}

// Insert associates val with prefix p, replacing any previous value. The
// prefix is canonicalized (masked) before insertion, so 10.1.2.3/8 and
// 10.0.0.0/8 are the same key. It reports whether the key was newly added.
func (t *Trie[V]) Insert(p netip.Prefix, val V) (added bool, err error) {
	if err := checkPrefix(p); err != nil {
		return false, err
	}
	if t.root == nil {
		t.root = &node[V]{}
	}
	n := t.root
	// Only the first Bits() bits are walked, which is the masking.
	k := key(p.Addr())
	for i := p.Bits(); i > 0; i-- {
		b := k >> 31
		k <<= 1
		if n.child[b] == nil {
			n.child[b] = &node[V]{}
		}
		n = n.child[b]
	}
	added = !n.has
	n.has = true
	n.val = val
	if added {
		t.size++
	}
	return added, nil
}

// Delete removes prefix p from the trie, reporting whether it was present.
// Interior nodes are left in place (the trie never shrinks structurally);
// this is fine for the workloads here, where deletions are rare relative
// to lookups.
func (t *Trie[V]) Delete(p netip.Prefix) (removed bool, err error) {
	if err := checkPrefix(p); err != nil {
		return false, err
	}
	n := t.root
	k := key(p.Addr())
	for i := p.Bits(); n != nil && i > 0; i-- {
		n = n.child[k>>31]
		k <<= 1
	}
	if n == nil || !n.has {
		return false, nil
	}
	var zero V
	n.has = false
	n.val = zero
	t.size--
	return true, nil
}

// Get returns the value stored at exactly prefix p.
func (t *Trie[V]) Get(p netip.Prefix) (val V, ok bool) {
	var zero V
	if err := checkPrefix(p); err != nil {
		return zero, false
	}
	n := t.root
	k := key(p.Addr())
	for i := p.Bits(); n != nil && i > 0; i-- {
		n = n.child[k>>31]
		k <<= 1
	}
	if n == nil || !n.has {
		return zero, false
	}
	return n.val, true
}

// LongestMatch returns the most specific stored prefix containing addr,
// along with its value. ok is false when no stored prefix covers addr.
func (t *Trie[V]) LongestMatch(addr netip.Addr) (p netip.Prefix, val V, ok bool) {
	var zero V
	if !addr.Is4() {
		return netip.Prefix{}, zero, false
	}
	n := t.root
	k := key(addr)
	bestLen := -1
	var bestVal V
	for i := 0; n != nil; i++ {
		if n.has {
			bestLen = i
			bestVal = n.val
		}
		if i == 32 {
			break
		}
		n = n.child[k>>31]
		k <<= 1
	}
	if bestLen < 0 {
		return netip.Prefix{}, zero, false
	}
	bp, err := addr.Prefix(bestLen)
	if err != nil {
		return netip.Prefix{}, zero, false
	}
	return bp, bestVal, true
}

// Matches returns every stored (prefix, value) pair that covers addr, from
// least to most specific. The slice is nil when nothing matches.
func (t *Trie[V]) Matches(addr netip.Addr) []Entry[V] {
	if !addr.Is4() {
		return nil
	}
	var out []Entry[V]
	n := t.root
	k := key(addr)
	for i := 0; n != nil; i++ {
		if n.has {
			p, err := addr.Prefix(i)
			if err != nil {
				break
			}
			out = append(out, Entry[V]{Prefix: p, Value: n.val})
		}
		if i == 32 {
			break
		}
		n = n.child[k>>31]
		k <<= 1
	}
	return out
}

// Entry is a stored (prefix, value) pair, as yielded by Walk and Matches.
type Entry[V any] struct {
	Prefix netip.Prefix
	Value  V
}

// Len returns the number of stored prefixes.
func (t *Trie[V]) Len() int { return t.size }

// Walk visits every stored (prefix, value) pair in lexicographic bit
// order (which sorts by address, then by prefix length at equal address
// bits, shorter first). Walk stops early and returns false if fn returns
// false; otherwise it returns true.
func (t *Trie[V]) Walk(fn func(p netip.Prefix, val V) bool) bool {
	var rec func(n *node[V], bits [4]byte, depth int) bool
	rec = func(n *node[V], bits [4]byte, depth int) bool {
		if n == nil {
			return true
		}
		if n.has {
			addr := netip.AddrFrom4(bits)
			p, err := addr.Prefix(depth)
			if err == nil && !fn(p, n.val) {
				return false
			}
		}
		if depth == 32 {
			return true
		}
		if !rec(n.child[0], bits, depth+1) {
			return false
		}
		b1 := bits
		b1[depth/8] |= 1 << (7 - depth%8)
		return rec(n.child[1], b1, depth+1)
	}
	return rec(t.root, [4]byte{}, 0)
}

// Entries returns all stored pairs in Walk order.
func (t *Trie[V]) Entries() []Entry[V] {
	out := make([]Entry[V], 0, t.size)
	t.Walk(func(p netip.Prefix, v V) bool {
		out = append(out, Entry[V]{Prefix: p, Value: v})
		return true
	})
	return out
}

// Package iptrie implements a binary radix trie over IPv4 prefixes with
// longest-prefix-match lookup, and the one-word prefix key that exact-match
// tables use instead of it.
//
// The paper maps every Tor relay IP to "the most specific BGP prefix that
// contained it" (its Tor prefix); this trie is the substrate for that
// batch mapping. Questions that ask for one prefix exactly, such as the
// live RIB's and the watchlist's, hash a Key instead of walking bits. The
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

// Key returns the exact-match key of IPv4 prefix p: the masked address in
// the high bits over the length in the low 8, addr<<8 | bits. Keys of
// distinct prefixes differ, and keys sort in the trie's pre-order: by
// address, then shorter first. ok is false for an invalid or non-IPv4
// prefix.
func Key(p netip.Prefix) (k uint64, ok bool) {
	if !p.IsValid() || !p.Addr().Is4() {
		return 0, false
	}
	return AddrKey(key(p.Addr()), p.Bits()), true
}

// AddrKey returns the Key of the /bits prefix covering IPv4 address a,
// given as the word key derives; bits must be in [0, 32].
func AddrKey(a uint32, bits int) uint64 {
	return uint64(a&^(^uint32(0)>>bits))<<8 | uint64(bits)
}

// KeyPrefix returns the prefix whose Key is k.
func KeyPrefix(k uint64) netip.Prefix {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], uint32(k>>8))
	return netip.PrefixFrom(netip.AddrFrom4(b), int(k&0xff))
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

// Len returns the number of stored prefixes.
func (t *Trie[V]) Len() int { return t.size }

// Package iptrie is the one IPv4 prefix index. The paper maps every Tor
// relay IP to "the most specific BGP prefix that contained it", and its
// monitor asks whether an announcement is a watched prefix or more
// specific than one: the batch relay-IP map, the live RIB's shards and
// the watchlist all ask a Trie.
package iptrie

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"net/netip"
	"slices"
)

// Trie maps IPv4 prefixes to values of type V: a map keyed by Key plus,
// per first octet, a mask of the lengths stored over it, so a lookup
// probes only the lengths its octet names. Masks only grow: a deleted
// length costs a probe, never a wrong answer. The zero value is empty.
// Trie is not safe for concurrent mutation; concurrent reads are safe.
type Trie[V any] struct {
	m    map[uint64]V
	lens [256]uint64 // lens[o] bit b: a /b prefix was stored over first octet o
}

// key returns IPv4 address a as a big-endian word.
func key(a netip.Addr) uint32 {
	b := a.As4()
	return binary.BigEndian.Uint32(b[:])
}

// Key returns IPv4 prefix p's key, addr<<8 | bits over the masked address:
// distinct prefixes' keys differ and sort by address, then shorter first.
// ok is false for an invalid or non-IPv4 prefix.
func Key(p netip.Prefix) (k uint64, ok bool) {
	if !p.IsValid() || !p.Addr().Is4() {
		return 0, false
	}
	return addrKey(key(p.Addr()), p.Bits()), true
}

// addrKey returns the Key of the /bits prefix covering IPv4 address a.
func addrKey(a uint32, bits int) uint64 {
	return uint64(a&^(^uint32(0)>>bits))<<8 | uint64(bits)
}

// KeyPrefix returns the prefix whose Key is k.
func KeyPrefix(k uint64) netip.Prefix {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], uint32(k>>8))
	return netip.PrefixFrom(netip.AddrFrom4(b), int(k&0xff))
}

// Insert stores val at prefix p, masked first (10.1.2.3/8 is 10.0.0.0/8),
// replacing any previous value. It reports whether p was newly added.
func (t *Trie[V]) Insert(p netip.Prefix, val V) (added bool, err error) {
	k, ok := Key(p)
	if !ok {
		return false, fmt.Errorf("iptrie: %v is not a valid IPv4 prefix", p)
	}
	_, had := t.GetKey(k)
	t.SetKey(k, val)
	return !had, nil
}

// Get returns the value stored at exactly prefix p.
func (t *Trie[V]) Get(p netip.Prefix) (val V, ok bool) {
	if k, ok := Key(p); ok {
		return t.GetKey(k)
	}
	return val, false
}

// GetKey returns the value stored at exactly the prefix whose Key is k.
func (t *Trie[V]) GetKey(k uint64) (val V, ok bool) {
	if t.lens[k>>32]>>(k&0xff)&1 != 0 {
		val, ok = t.m[k]
	}
	return val, ok
}

// SetKey stores val at the prefix whose Key is k.
func (t *Trie[V]) SetKey(k uint64, val V) {
	if t.m == nil {
		t.m = make(map[uint64]V)
	}
	t.m[k] = val
	// A prefix shorter than /8 spans 2^(8-bits) first octets.
	plen := int(k & 0xff)
	first, span := int(k>>32), 1<<max(8-plen, 0)
	for o := first; o < first+span; o++ {
		t.lens[o] |= 1 << plen
	}
}

// DeleteKey removes the prefix whose Key is k, if it is stored.
func (t *Trie[V]) DeleteKey(k uint64) { delete(t.m, k) }

// CoversKey reports whether a stored prefix strictly shorter than the one
// whose Key is k contains it.
func (t *Trie[V]) CoversKey(k uint64) bool {
	_, _, ok := t.longest(uint32(k>>8), t.lens[k>>32]&(1<<(k&0xff)-1))
	return ok
}

// LongestMatch returns the most specific stored prefix containing addr,
// along with its value. ok is false when no stored prefix covers addr.
func (t *Trie[V]) LongestMatch(addr netip.Addr) (p netip.Prefix, val V, ok bool) {
	if !addr.Is4() {
		return p, val, false
	}
	a := key(addr)
	if k, val, ok := t.longest(a, t.lens[a>>24]); ok {
		return KeyPrefix(k), val, true
	}
	return p, val, false
}

// longest returns the longest prefix over address a of the lengths lens names.
func (t *Trie[V]) longest(a uint32, lens uint64) (k uint64, val V, ok bool) {
	for ; lens != 0; lens &^= 1 << (k & 0xff) {
		k = addrKey(a, 63-bits.LeadingZeros64(lens))
		if val, ok = t.m[k]; ok {
			return k, val, true
		}
	}
	return 0, val, false
}

// Walk calls fn on every stored prefix in Key order until fn returns false.
func (t *Trie[V]) Walk(fn func(netip.Prefix, V) bool) {
	keys := make([]uint64, 0, len(t.m))
	for k := range t.m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		if !fn(KeyPrefix(k), t.m[k]) {
			return
		}
	}
}

// Len returns the number of stored prefixes.
func (t *Trie[V]) Len() int { return len(t.m) }

package iptrie

import (
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"testing"
)

func mustPrefix(t *testing.T, s string) netip.Prefix {
	t.Helper()
	p, err := netip.ParsePrefix(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mustKey(t *testing.T, s string) uint64 {
	t.Helper()
	k, ok := Key(mustPrefix(t, s))
	if !ok {
		t.Fatalf("Key(%s) refused", s)
	}
	return k
}

func mustAddr(t *testing.T, s string) netip.Addr {
	t.Helper()
	a, err := netip.ParseAddr(s)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestInsertGet(t *testing.T) {
	var tr Trie[string]
	added, err := tr.Insert(mustPrefix(t, "10.0.0.0/8"), "ten")
	if err != nil || !added {
		t.Fatalf("Insert: added=%v err=%v", added, err)
	}
	v, ok := tr.GetKey(mustKey(t, "10.0.0.0/8"))
	if !ok || v != "ten" {
		t.Fatalf("GetKey = %q, %v", v, ok)
	}
	if len(tr.m) != 1 {
		t.Fatalf("Len = %d", len(tr.m))
	}
}

func TestInsertReplaces(t *testing.T) {
	var tr Trie[int]
	tr.Insert(mustPrefix(t, "10.0.0.0/8"), 1)
	added, err := tr.Insert(mustPrefix(t, "10.0.0.0/8"), 2)
	if err != nil {
		t.Fatal(err)
	}
	if added {
		t.Fatal("re-insert reported added=true")
	}
	v, _ := tr.GetKey(mustKey(t, "10.0.0.0/8"))
	if v != 2 {
		t.Fatalf("value = %d, want 2", v)
	}
	if len(tr.m) != 1 {
		t.Fatalf("Len = %d, want 1", len(tr.m))
	}
}

func TestInsertCanonicalizes(t *testing.T) {
	var tr Trie[int]
	tr.Insert(mustPrefix(t, "10.1.2.3/8"), 7)
	v, ok := tr.GetKey(mustKey(t, "10.0.0.0/8"))
	if !ok || v != 7 {
		t.Fatalf("canonicalized GetKey = %d, %v", v, ok)
	}
}

func TestInsertRejectsIPv6(t *testing.T) {
	var tr Trie[int]
	p, _ := netip.ParsePrefix("2001:db8::/32")
	if _, err := tr.Insert(p, 1); err == nil {
		t.Fatal("expected error for IPv6 prefix")
	}
	if _, err := tr.Insert(netip.Prefix{}, 1); err == nil {
		t.Fatal("expected error for zero prefix")
	}
}

func TestLongestMatchPicksMostSpecific(t *testing.T) {
	var tr Trie[string]
	tr.Insert(mustPrefix(t, "10.0.0.0/8"), "eight")
	tr.Insert(mustPrefix(t, "10.1.0.0/16"), "sixteen")
	tr.Insert(mustPrefix(t, "10.1.2.0/24"), "twentyfour")

	p, v, ok := tr.LongestMatch(mustAddr(t, "10.1.2.3"))
	if !ok || v != "twentyfour" || p != mustPrefix(t, "10.1.2.0/24") {
		t.Fatalf("got %v %q %v", p, v, ok)
	}
	p, v, ok = tr.LongestMatch(mustAddr(t, "10.1.9.9"))
	if !ok || v != "sixteen" || p != mustPrefix(t, "10.1.0.0/16") {
		t.Fatalf("got %v %q %v", p, v, ok)
	}
	p, v, ok = tr.LongestMatch(mustAddr(t, "10.200.0.1"))
	if !ok || v != "eight" || p != mustPrefix(t, "10.0.0.0/8") {
		t.Fatalf("got %v %q %v", p, v, ok)
	}
	_, _, ok = tr.LongestMatch(mustAddr(t, "11.0.0.1"))
	if ok {
		t.Fatal("unexpected match for 11.0.0.1")
	}
}

func TestLongestMatchHostRoute(t *testing.T) {
	var tr Trie[int]
	tr.Insert(mustPrefix(t, "192.0.2.55/32"), 1)
	_, v, ok := tr.LongestMatch(mustAddr(t, "192.0.2.55"))
	if !ok || v != 1 {
		t.Fatalf("host route lookup failed: %v %v", v, ok)
	}
	_, _, ok = tr.LongestMatch(mustAddr(t, "192.0.2.54"))
	if ok {
		t.Fatal("unexpected match for adjacent host")
	}
}

func TestDefaultRoute(t *testing.T) {
	var tr Trie[string]
	tr.Insert(mustPrefix(t, "0.0.0.0/0"), "default")
	p, v, ok := tr.LongestMatch(mustAddr(t, "203.0.113.9"))
	if !ok || v != "default" || p.Bits() != 0 {
		t.Fatalf("default route: %v %q %v", p, v, ok)
	}
}

func TestLongestMatchIPv6Addr(t *testing.T) {
	var tr Trie[int]
	tr.Insert(mustPrefix(t, "0.0.0.0/0"), 1)
	a, _ := netip.ParseAddr("2001:db8::1")
	if _, _, ok := tr.LongestMatch(a); ok {
		t.Fatal("IPv6 address should not match")
	}
}

func TestKey(t *testing.T) {
	// Sorted keys run by address, then shorter first.
	order := []string{"0.0.0.0/0", "10.0.0.0/8", "10.0.0.0/16", "10.1.0.0/16", "10.1.2.3/32", "192.168.0.0/16"}
	var prev uint64
	for i, s := range order {
		k, ok := Key(mustPrefix(t, s))
		if !ok {
			t.Fatalf("Key(%s) rejected", s)
		}
		if got := KeyPrefix(k); got != mustPrefix(t, s) {
			t.Errorf("KeyPrefix(Key(%s)) = %v", s, got)
		}
		if i > 0 && k <= prev {
			t.Errorf("Key(%s) = %#x sorts before its predecessor %#x", s, k, prev)
		}
		prev = k
	}
	// Unmasked inputs share their masked prefix's key.
	k1, _ := Key(mustPrefix(t, "10.1.2.3/16"))
	k2, _ := Key(mustPrefix(t, "10.1.0.0/16"))
	if k1 != k2 || k1 != addrKey(0x0a010203, 16) {
		t.Errorf("unmasked key %#x, masked %#x, addrKey %#x", k1, k2, addrKey(0x0a010203, 16))
	}
	for _, p := range []netip.Prefix{{}, mustPrefix(t, "2001:db8::/32"), mustPrefix(t, "::ffff:10.0.0.0/104")} {
		if _, ok := Key(p); ok {
			t.Errorf("Key(%v) accepted", p)
		}
	}
}

// TestLongestMatchAgainstReference runs random Insert/SetKey/DeleteKey
// sequences over overlapping prefixes against a linear scan of a map. The
// prefixes include /0, /1–/7 spanning several first octets, /32s and
// unmasked inputs. The Trie must agree on Insert's added flag, Get,
// GetKey, LongestMatch, CoversKey, Walk order and Len; IPv6 and invalid
// prefixes are rejected and match nothing.
func TestLongestMatchAgainstReference(t *testing.T) {
	lengths := []int{0, 1, 2, 3, 5, 7, 8, 9, 12, 16, 23, 24, 31, 32}
	octets := []byte{0, 1, 10, 11, 63, 64, 127, 128, 200, 255}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		randPrefix := func() netip.Prefix {
			a := [4]byte{octets[rng.Intn(len(octets))], byte(rng.Intn(3)), byte(rng.Intn(3)), byte(rng.Intn(256))}
			return netip.PrefixFrom(netip.AddrFrom4(a), lengths[rng.Intn(len(lengths))]) // unmasked
		}
		pool := make([]netip.Prefix, 40)
		for i := range pool {
			pool[i] = randPrefix()
		}
		probes := slices.Clone(pool)
		for i := 0; i < 40; i++ {
			probes = append(probes, randPrefix())
		}

		var tr Trie[int]
		oracle := map[netip.Prefix]int{} // masked prefix -> value
		for op := 0; op < 300; op++ {
			p := pool[rng.Intn(len(pool))]
			k, _ := Key(p)
			switch rng.Intn(3) {
			case 0:
				_, had := oracle[p.Masked()]
				if added, err := tr.Insert(p, op); err != nil || added == had {
					t.Fatalf("seed %d: Insert(%v) = %v, %v; oracle had it: %v", seed, p, added, err, had)
				}
				oracle[p.Masked()] = op
			case 1:
				tr.SetKey(k, op)
				oracle[p.Masked()] = op
			default:
				tr.DeleteKey(k)
				delete(oracle, p.Masked())
			}
			if op%10 == 0 {
				if err := checkTrieOracle(&tr, oracle, probes); err != nil {
					t.Fatalf("seed %d op %d: %v", seed, op, err)
				}
			}
		}
	}

	var tr Trie[int]
	tr.Insert(mustPrefix(t, "0.0.0.0/0"), 1)
	for _, p := range []netip.Prefix{{}, mustPrefix(t, "2001:db8::/32"), mustPrefix(t, "::ffff:10.0.0.0/104")} {
		if _, err := tr.Insert(p, 2); err == nil {
			t.Errorf("Insert(%v) accepted", p)
		}
		if _, ok := Key(p); ok {
			t.Errorf("Key(%v) accepted", p)
		}
		if q, _, ok := tr.LongestMatch(p.Addr()); ok {
			t.Errorf("LongestMatch(%v) = %v", p.Addr(), q)
		}
	}
	if len(tr.m) != 1 {
		t.Errorf("Len = %d after rejected inserts, want 1", len(tr.m))
	}
}

// checkTrieOracle compares tr with the oracle's masked prefix -> value
// map by a linear scan per probe.
func checkTrieOracle(tr *Trie[int], oracle map[netip.Prefix]int, probes []netip.Prefix) error {
	if len(tr.m) != len(oracle) {
		return fmt.Errorf("Len = %d, oracle %d", len(tr.m), len(oracle))
	}
	for _, q := range probes {
		k, _ := Key(q)
		want, wantOK := oracle[q.Masked()]
		if v, ok := tr.GetKey(k); v != want || ok != wantOK {
			return fmt.Errorf("GetKey(%v) = %d, %v; oracle %d, %v", q, v, ok, want, wantOK)
		}
		best, found, covered := netip.Prefix{}, false, false
		for p := range oracle {
			if p.Contains(q.Addr()) && (!found || p.Bits() > best.Bits()) {
				best, found = p, true
			}
			covered = covered || (p.Bits() < q.Bits() && p.Contains(q.Addr()))
		}
		if p, v, ok := tr.LongestMatch(q.Addr()); ok != found || p != best || v != oracle[best] {
			return fmt.Errorf("LongestMatch(%v) = %v, %d, %v; oracle %v, %v", q.Addr(), p, v, ok, best, found)
		}
		if got := tr.CoversKey(k); got != covered {
			return fmt.Errorf("CoversKey(%v) = %v, oracle %v", q, got, covered)
		}
	}
	// Walk: every prefix once, by address then shorter first, stopping
	// when fn returns false.
	want := make([]netip.Prefix, 0, len(oracle))
	for p := range oracle {
		want = append(want, p)
	}
	slices.SortFunc(want, func(a, b netip.Prefix) int {
		if c := a.Addr().Compare(b.Addr()); c != 0 {
			return c
		}
		return a.Bits() - b.Bits()
	})
	var got []netip.Prefix
	var err error
	tr.Walk(func(p netip.Prefix, v int) bool {
		if v != oracle[p] {
			err = fmt.Errorf("Walk gave %v value %d, oracle %d", p, v, oracle[p])
		}
		got = append(got, p)
		return true
	})
	if err != nil {
		return err
	}
	if !slices.Equal(got, want) {
		return fmt.Errorf("Walk visited %v, oracle %v", got, want)
	}
	n := 0
	tr.Walk(func(netip.Prefix, int) bool { n++; return false })
	if n != min(len(oracle), 1) {
		return fmt.Errorf("Walk visited %d prefixes after fn returned false", n)
	}
	return nil
}

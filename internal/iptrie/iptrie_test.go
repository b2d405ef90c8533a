package iptrie

import (
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
)

func mustPrefix(t *testing.T, s string) netip.Prefix {
	t.Helper()
	p, err := netip.ParsePrefix(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
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
	v, ok := tr.Get(mustPrefix(t, "10.0.0.0/8"))
	if !ok || v != "ten" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d", tr.Len())
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
	v, _ := tr.Get(mustPrefix(t, "10.0.0.0/8"))
	if v != 2 {
		t.Fatalf("value = %d, want 2", v)
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tr.Len())
	}
}

func TestInsertCanonicalizes(t *testing.T) {
	var tr Trie[int]
	tr.Insert(mustPrefix(t, "10.1.2.3/8"), 7)
	v, ok := tr.Get(mustPrefix(t, "10.0.0.0/8"))
	if !ok || v != 7 {
		t.Fatalf("canonicalized Get = %d, %v", v, ok)
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
	// Sorted keys follow the trie's pre-order: address, then shorter first.
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
	if k1 != k2 || k1 != AddrKey(0x0a010203, 16) {
		t.Errorf("unmasked key %#x, masked %#x, AddrKey %#x", k1, k2, AddrKey(0x0a010203, 16))
	}
	for _, p := range []netip.Prefix{{}, mustPrefix(t, "2001:db8::/32"), mustPrefix(t, "::ffff:10.0.0.0/104")} {
		if _, ok := Key(p); ok {
			t.Errorf("Key(%v) accepted", p)
		}
	}
}

// referenceLPM is a brute-force longest-prefix match used as the oracle for
// the property test.
func referenceLPM(prefixes map[netip.Prefix]int, addr netip.Addr) (netip.Prefix, int, bool) {
	best := netip.Prefix{}
	bestVal := 0
	found := false
	for p, v := range prefixes {
		if p.Contains(addr) && (!found || p.Bits() > best.Bits()) {
			best, bestVal, found = p, v, true
		}
	}
	return best, bestVal, found
}

// Property: trie LPM agrees with brute-force scan on random prefix sets.
func TestLongestMatchAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		var tr Trie[int]
		prefixes := make(map[netip.Prefix]int)
		n := 1 + rng.Intn(60)
		for i := 0; i < n; i++ {
			addr := netip.AddrFrom4([4]byte{byte(rng.Intn(8)), byte(rng.Intn(4)), byte(rng.Intn(4)), byte(rng.Intn(256))})
			bits := rng.Intn(33)
			p, err := addr.Prefix(bits)
			if err != nil {
				t.Fatal(err)
			}
			prefixes[p] = i
			tr.Insert(p, i)
		}
		// Re-insert to fix value collisions on canonicalized duplicates:
		// map wins last, so replay map contents.
		for p, v := range prefixes {
			tr.Insert(p, v)
		}
		if tr.Len() != len(prefixes) {
			t.Fatalf("Len = %d, want %d", tr.Len(), len(prefixes))
		}
		for q := 0; q < 200; q++ {
			addr := netip.AddrFrom4([4]byte{byte(rng.Intn(8)), byte(rng.Intn(4)), byte(rng.Intn(4)), byte(rng.Intn(256))})
			wp, _, wok := referenceLPM(prefixes, addr)
			gp, _, gok := tr.LongestMatch(addr)
			if wok != gok {
				t.Fatalf("addr %v: ok %v vs reference %v", addr, gok, wok)
			}
			if wok && gp.Bits() != wp.Bits() {
				t.Fatalf("addr %v: got /%d, reference /%d", addr, gp.Bits(), wp.Bits())
			}
		}
	}
}

// Property (testing/quick): inserting any valid prefix makes Get find it.
func TestInsertThenGetQuick(t *testing.T) {
	f := func(a, b, c, d byte, bitsRaw uint8) bool {
		bits := int(bitsRaw % 33)
		addr := netip.AddrFrom4([4]byte{a, b, c, d})
		p, err := addr.Prefix(bits)
		if err != nil {
			return false
		}
		var tr Trie[byte]
		if _, err := tr.Insert(p, a); err != nil {
			return false
		}
		v, ok := tr.Get(p)
		return ok && v == a && tr.Len() == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

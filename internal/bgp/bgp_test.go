package bgp

import (
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
	"testing/quick"
)

func pfx(t *testing.T, s string) netip.Prefix {
	t.Helper()
	p, err := netip.ParsePrefix(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func addr(t *testing.T, s string) netip.Addr {
	t.Helper()
	a, err := netip.ParseAddr(s)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestASNString(t *testing.T) {
	if got := ASN(65000).String(); got != "AS65000" {
		t.Fatalf("got %q", got)
	}
}

func TestCommunityString(t *testing.T) {
	if got := Community(64500<<16 | 120).String(); got != "64500:120" {
		t.Fatalf("got %q", got)
	}
	if got := CommunityNoExport.String(); got != "no-export" {
		t.Fatalf("got %q", got)
	}
}

// TestFlattenPathKeepsEmptyDistinct pins nil-vs-empty — only an absent
// path may be nil, with or without a destination — and that a destination
// with room is the storage of the result.
func TestFlattenPathKeepsEmptyDistinct(t *testing.T) {
	scratch := make([]ASN, 0, 8)
	for _, dst := range [][]ASN{nil, scratch} {
		if got := FlattenPath(dst, ASPath{}); got == nil || len(got) != 0 {
			t.Errorf("FlattenPath(%#v, empty) = %#v, want non-nil empty", dst, got)
		}
	}
	two := ASPath{Segments: []Segment{
		{Type: SegmentSequence, ASes: []ASN{1, 2}},
		{Type: SegmentSet, ASes: []ASN{3}},
	}}
	if got := FlattenPath(nil, two); !reflect.DeepEqual(got, []ASN{1, 2, 3}) {
		t.Errorf("FlattenPath(two segments) = %v", got)
	}
	if len(emptyPath) != 0 {
		t.Error("flattening appended into the shared empty-path sentinel")
	}
	got := FlattenPath(append(scratch, 9, 9, 9, 9), two)
	if !reflect.DeepEqual(got, []ASN{1, 2, 3}) || &got[0] != &scratch[:1][0] {
		t.Errorf("FlattenPath into a destination = %v, want [1 2 3] over the destination's storage", got)
	}
}

func TestASPathString(t *testing.T) {
	p := ASPath{Segments: []Segment{
		{Type: SegmentSequence, ASes: []ASN{1, 2}},
		{Type: SegmentSet, ASes: []ASN{3, 4}},
	}}
	if got := p.String(); got != "1 2 {3,4}" {
		t.Fatalf("String = %q", got)
	}
}

func TestUpdateRoundTrip(t *testing.T) {
	u := &Update{
		Withdrawn: []netip.Prefix{pfx(t, "198.51.100.0/24")},
		Attrs: PathAttributes{
			Origin:    OriginIGP,
			HasOrigin: true,
			ASPath:    Sequence(64500, 64501, 3320),
			HasASPath: true,
			NextHop:   addr(t, "192.0.2.1"),
			MED:       50,
			HasMED:    true,
			LocalPref: 120, HasLocalPref: true,
			AtomicAggregate: true,
			Aggregator:      &Aggregator{ASN: 64500, Addr: addr(t, "192.0.2.9")},
			Communities:     []Community{64500<<16 | 1, CommunityNoExport},
		},
		NLRI: []netip.Prefix{pfx(t, "203.0.113.0/24"), pfx(t, "10.0.0.0/8")},
	}
	for _, as4 := range []bool{true, false} {
		raw, err := u.Marshal(as4)
		if err != nil {
			t.Fatalf("as4=%v: %v", as4, err)
		}
		got, err := ParseUpdate(raw, as4)
		if err != nil {
			t.Fatalf("as4=%v: %v", as4, err)
		}
		if len(got.Withdrawn) != 1 || got.Withdrawn[0] != u.Withdrawn[0] {
			t.Fatalf("withdrawn = %v", got.Withdrawn)
		}
		if !reflect.DeepEqual(got.Attrs.ASPath, u.Attrs.ASPath) {
			t.Fatalf("aspath = %v, want %v", got.Attrs.ASPath, u.Attrs.ASPath)
		}
		if got.Attrs.NextHop != u.Attrs.NextHop || !got.Attrs.HasMED || got.Attrs.MED != 50 ||
			!got.Attrs.HasLocalPref || got.Attrs.LocalPref != 120 || !got.Attrs.AtomicAggregate {
			t.Fatalf("attrs = %+v", got.Attrs)
		}
		if got.Attrs.Aggregator == nil || got.Attrs.Aggregator.ASN != 64500 {
			t.Fatalf("aggregator = %+v", got.Attrs.Aggregator)
		}
		if len(got.Attrs.Communities) != 2 || got.Attrs.Communities[1] != CommunityNoExport {
			t.Fatalf("communities = %v", got.Attrs.Communities)
		}
		if len(got.NLRI) != 2 || got.NLRI[0] != u.NLRI[0] || got.NLRI[1] != u.NLRI[1] {
			t.Fatalf("nlri = %v", got.NLRI)
		}
	}
}

func TestUpdateWideASNNeedsAS4(t *testing.T) {
	u := &Update{
		Attrs: PathAttributes{
			HasOrigin: true, Origin: OriginIGP,
			ASPath: Sequence(400000), HasASPath: true,
			NextHop: netip.AddrFrom4([4]byte{192, 0, 2, 1}),
		},
		NLRI: []netip.Prefix{netip.MustParsePrefix("203.0.113.0/24")},
	}
	raw, err := u.Marshal(false) // 2-byte encoding
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseUpdate(raw, false)
	if err != nil {
		t.Fatal(err)
	}
	if p := FlattenPath(nil, got.Attrs.ASPath); len(p) != 1 || p[0] != ASTrans {
		t.Fatalf("2-byte encoding of AS400000 = %v, want AS_TRANS", p)
	}
	raw4, err := u.Marshal(true)
	if err != nil {
		t.Fatal(err)
	}
	got4, err := ParseUpdate(raw4, true)
	if err != nil {
		t.Fatal(err)
	}
	if p := FlattenPath(nil, got4.Attrs.ASPath); len(p) != 1 || p[0] != 400000 {
		t.Fatalf("4-byte encoding = %v, want AS400000", p)
	}
}

func TestOpenRoundTrip(t *testing.T) {
	o := &Open{Version: 4, ASN: 3320, HoldTime: 90, BGPID: addr(t, "10.0.0.1")}
	raw, err := o.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseOpen(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != 4 || got.ASN != 3320 || got.HoldTime != 90 || got.BGPID != o.BGPID || got.AS4 {
		t.Fatalf("got %+v", got)
	}
}

func TestOpenAS4Capability(t *testing.T) {
	o := &Open{Version: 4, ASN: 400000, HoldTime: 180, BGPID: addr(t, "10.0.0.2"), AS4: true}
	raw, err := o.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseOpen(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !got.AS4 || got.ASN != 400000 {
		t.Fatalf("got %+v, want AS4 with ASN 400000", got)
	}
}

func TestNotificationRoundTrip(t *testing.T) {
	n := &Notification{Code: NotifCease, Subcode: 2, Data: []byte{1, 2, 3}}
	raw, err := n.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseNotification(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Code != NotifCease || got.Subcode != 2 || len(got.Data) != 3 {
		t.Fatalf("got %+v", got)
	}
}

func TestKeepaliveMarshalAndHeader(t *testing.T) {
	k := &Keepalive{}
	raw, err := k.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	typ, n, err := ParseHeader(raw)
	if err != nil {
		t.Fatal(err)
	}
	if typ != TypeKeepalive || n != HeaderLen {
		t.Fatalf("typ=%d n=%d", typ, n)
	}
}

func TestParseHeaderErrors(t *testing.T) {
	if _, _, err := ParseHeader(make([]byte, 5)); !errors.Is(err, ErrShortMessage) {
		t.Fatalf("short: %v", err)
	}
	bad := make([]byte, HeaderLen)
	if _, _, err := ParseHeader(bad); !errors.Is(err, ErrBadMarker) {
		t.Fatalf("marker: %v", err)
	}
	k, _ := (&Keepalive{}).Marshal()
	k[16], k[17] = 0, 1 // length 1 < 19
	if _, _, err := ParseHeader(k); !errors.Is(err, ErrBadLength) {
		t.Fatalf("length: %v", err)
	}
}

func TestParseUpdateWrongType(t *testing.T) {
	k, _ := (&Keepalive{}).Marshal()
	if _, err := ParseUpdate(k, true); err == nil {
		t.Fatal("expected type error")
	}
}

func TestParseUpdateTruncatedAttrs(t *testing.T) {
	u := &Update{
		Attrs: PathAttributes{HasOrigin: true, Origin: OriginIGP, HasASPath: true,
			ASPath: Sequence(1, 2), NextHop: netip.AddrFrom4([4]byte{1, 2, 3, 4})},
		NLRI: []netip.Prefix{netip.MustParsePrefix("10.0.0.0/8")},
	}
	raw, err := u.Marshal(true)
	if err != nil {
		t.Fatal(err)
	}
	// Chop bytes from the middle: truncate the message and fix length.
	cut := raw[:len(raw)-3]
	cut[16] = byte(len(cut) >> 8)
	cut[17] = byte(len(cut))
	if _, err := ParseUpdate(cut, true); err == nil {
		t.Fatal("expected error for truncated UPDATE")
	}
}

func TestParseUpdateBadPrefixLen(t *testing.T) {
	u := &Update{NLRI: []netip.Prefix{netip.MustParsePrefix("10.0.0.0/8")}}
	raw, _ := u.Marshal(true)
	// NLRI starts after header + 2 (wlen=0) + 2 (alen=0): set bits=33.
	raw[HeaderLen+4] = 33
	if _, err := ParseUpdate(raw, true); !errors.Is(err, ErrBadPrefix) {
		t.Fatalf("err = %v, want ErrBadPrefix", err)
	}
}

func TestUnknownWellKnownAttributeRejected(t *testing.T) {
	u := &Update{NLRI: []netip.Prefix{netip.MustParsePrefix("10.0.0.0/8")}}
	raw, _ := u.Marshal(true)
	// Splice in a bogus well-known attribute (flags 0x40, type 200, len 0)
	// by rebuilding the message body.
	body := []byte{0, 0, 0, 3, 0x40, 200, 0, 8, 10}
	msg := appendHeader(nil, TypeUpdate, len(body))
	msg = append(msg, body...)
	_ = raw
	if _, err := ParseUpdate(msg, true); !errors.Is(err, ErrBadAttribute) {
		t.Fatalf("err = %v, want ErrBadAttribute", err)
	}
}

func TestUnknownOptionalAttributeTolerated(t *testing.T) {
	body := []byte{0, 0, 0, 3, 0x80, 200, 0, 8, 10}
	msg := appendHeader(nil, TypeUpdate, len(body))
	msg = append(msg, body...)
	got, err := ParseUpdate(msg, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.NLRI) != 1 {
		t.Fatalf("NLRI = %v", got.NLRI)
	}
}

func TestAnnouncesOrWithdraws(t *testing.T) {
	if (&Update{}).AnnouncesOrWithdraws() {
		t.Fatal("empty update should be End-of-RIB")
	}
	if !(&Update{NLRI: []netip.Prefix{netip.MustParsePrefix("10.0.0.0/8")}}).AnnouncesOrWithdraws() {
		t.Fatal("announce not detected")
	}
}

// randomUpdate builds a structurally valid random UPDATE for round-trip
// property testing.
func randomUpdate(rng *rand.Rand, as4 bool) *Update {
	randPrefix := func() netip.Prefix {
		a := netip.AddrFrom4([4]byte{byte(1 + rng.Intn(223)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))})
		p, _ := a.Prefix(8 + rng.Intn(25))
		return p
	}
	randASN := func() ASN {
		if as4 && rng.Intn(4) == 0 {
			return ASN(65536 + rng.Intn(1000000))
		}
		return ASN(1 + rng.Intn(65000))
	}
	u := &Update{}
	for i := rng.Intn(4); i > 0; i-- {
		u.Withdrawn = append(u.Withdrawn, randPrefix())
	}
	nNLRI := rng.Intn(5)
	for i := 0; i < nNLRI; i++ {
		u.NLRI = append(u.NLRI, randPrefix())
	}
	if nNLRI > 0 {
		u.Attrs.HasOrigin = true
		u.Attrs.Origin = rng.Intn(3)
		var path ASPath
		nseg := 1 + rng.Intn(2)
		for s := 0; s < nseg; s++ {
			seg := Segment{Type: SegmentSequence}
			if rng.Intn(4) == 0 {
				seg.Type = SegmentSet
			}
			for i := 1 + rng.Intn(4); i > 0; i-- {
				seg.ASes = append(seg.ASes, randASN())
			}
			path.Segments = append(path.Segments, seg)
		}
		u.Attrs.ASPath = path
		u.Attrs.HasASPath = true
		u.Attrs.NextHop = netip.AddrFrom4([4]byte{byte(1 + rng.Intn(223)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(1 + rng.Intn(254))})
		if rng.Intn(2) == 0 {
			u.Attrs.HasMED = true
			u.Attrs.MED = rng.Uint32()
		}
		if rng.Intn(2) == 0 {
			u.Attrs.HasLocalPref = true
			u.Attrs.LocalPref = rng.Uint32()
		}
		for i := rng.Intn(4); i > 0; i-- {
			u.Attrs.Communities = append(u.Attrs.Communities, Community(rng.Uint32()))
		}
	}
	return u
}

// Property: Marshal → ParseUpdate is the identity on valid updates.
func TestUpdateRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 300; trial++ {
		as4 := trial%2 == 0
		u := randomUpdate(rng, as4)
		raw, err := u.Marshal(as4)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got, err := ParseUpdate(raw, as4)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(got.Withdrawn) != len(u.Withdrawn) || len(got.NLRI) != len(u.NLRI) {
			t.Fatalf("trial %d: prefix counts differ", trial)
		}
		for i := range u.Withdrawn {
			if got.Withdrawn[i] != u.Withdrawn[i] {
				t.Fatalf("trial %d: withdrawn[%d] %v != %v", trial, i, got.Withdrawn[i], u.Withdrawn[i])
			}
		}
		for i := range u.NLRI {
			if got.NLRI[i] != u.NLRI[i] {
				t.Fatalf("trial %d: nlri[%d] %v != %v", trial, i, got.NLRI[i], u.NLRI[i])
			}
		}
		if len(u.NLRI) > 0 && !reflect.DeepEqual(got.Attrs.ASPath, u.Attrs.ASPath) {
			t.Fatalf("trial %d: aspath %v != %v", trial, got.Attrs.ASPath, u.Attrs.ASPath)
		}
		if len(got.Attrs.Communities) != len(u.Attrs.Communities) {
			t.Fatalf("trial %d: communities differ", trial)
		}
	}
}

// Property (testing/quick): a community renders as its high:low halves,
// unless it is one of the well-known values (all with high 0xFFFF).
func TestCommunityRoundTripQuick(t *testing.T) {
	f := func(high, low uint16) bool {
		c := Community(uint32(high)<<16 | uint32(low))
		return c.String() == fmt.Sprintf("%d:%d", high, low) || high == 0xFFFF
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

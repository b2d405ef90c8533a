package bgp

import (
	"net/netip"
	"testing"
)

// Fuzz targets: the parsers must never panic on arbitrary input, and
// anything they accept must re-encode without error.

func FuzzParseUpdate(f *testing.F) {
	u := &Update{
		Withdrawn: []netip.Prefix{netip.MustParsePrefix("198.51.100.0/24")},
		Attrs: PathAttributes{
			HasOrigin: true, Origin: OriginIGP,
			HasASPath: true, ASPath: Sequence(64500, 3320),
			NextHop:     netip.MustParseAddr("192.0.2.1"),
			Communities: []Community{MakeCommunity(64500, 1)},
		},
		NLRI: []netip.Prefix{netip.MustParsePrefix("203.0.113.0/24")},
	}
	for _, as4 := range []bool{true, false} {
		raw, err := u.Marshal(as4)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw, as4)
	}
	f.Add([]byte{}, true)
	// An AS_PATH whose one segment holds no AS: found by this fuzzer when
	// the decoder still accepted what Marshal refuses.
	emptySeg := []byte{0, 0, 0, 5, 0x40, AttrASPath, 2, SegmentSequence, 0}
	f.Add(append(appendHeader(nil, TypeUpdate, len(emptySeg)), emptySeg...), true)
	f.Fuzz(func(t *testing.T, data []byte, as4 bool) {
		u, err := ParseUpdate(data, as4)
		if err != nil {
			return
		}
		// Accepted updates must re-marshal cleanly.
		if _, err := u.Marshal(as4); err != nil {
			t.Fatalf("accepted update failed to re-marshal: %v", err)
		}
	})
}

func FuzzParseOpen(f *testing.F) {
	o := &Open{Version: 4, ASN: 400000, HoldTime: 90,
		BGPID: netip.MustParseAddr("10.0.0.1"), AS4: true}
	raw, err := o.Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Fuzz(func(t *testing.T, data []byte) {
		o, err := ParseOpen(data)
		if err != nil {
			return
		}
		if _, err := o.Marshal(); err != nil {
			t.Fatalf("accepted OPEN failed to re-marshal: %v", err)
		}
	})
}

func FuzzParseNotification(f *testing.F) {
	n := &Notification{Code: NotifCease, Subcode: 1, Data: []byte{1, 2}}
	raw, err := n.Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Fuzz(func(t *testing.T, data []byte) {
		n, err := ParseNotification(data)
		if err != nil {
			return
		}
		if _, err := n.Marshal(); err != nil {
			t.Fatalf("accepted NOTIFICATION failed to re-marshal: %v", err)
		}
	})
}

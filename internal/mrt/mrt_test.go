package mrt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net/netip"
	"reflect"
	"runtime"
	"testing"
	"time"

	"quicksand/internal/bgp"
)

var t0 = time.Date(2014, 5, 1, 0, 0, 0, 0, time.UTC)

func sampleUpdate(t *testing.T) []byte {
	t.Helper()
	u := &bgp.Update{
		Attrs: bgp.PathAttributes{
			HasOrigin: true, Origin: bgp.OriginIGP,
			HasASPath: true, ASPath: bgp.Sequence(64500, 3320, 24940),
			NextHop: netip.MustParseAddr("192.0.2.1"),
		},
		NLRI: []netip.Prefix{netip.MustParsePrefix("78.46.0.0/15")},
	}
	raw, err := u.Marshal(true)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestMessageRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	msg := &BGP4MPMessage{
		PeerAS: 64500, LocalAS: 12654, Interface: 3,
		PeerIP:  netip.MustParseAddr("10.1.1.1"),
		LocalIP: netip.MustParseAddr("10.1.1.2"),
		AS4:     true,
		Data:    sampleUpdate(t),
	}
	if err := w.WriteMessage(t0, msg); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	rec, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Message == nil {
		t.Fatal("no message payload")
	}
	got := rec.Message
	if got.PeerAS != 64500 || got.LocalAS != 12654 || got.Interface != 3 || !got.AS4 {
		t.Fatalf("peer header: %+v", got)
	}
	if !rec.Header.Timestamp.Equal(t0) {
		t.Fatalf("timestamp = %v", rec.Header.Timestamp)
	}
	u, err := bgp.ParseUpdate(got.Data, got.AS4)
	if err != nil {
		t.Fatal(err)
	}
	if u.NLRI[0] != netip.MustParsePrefix("78.46.0.0/15") {
		t.Fatalf("NLRI = %v", u.NLRI)
	}
	if p := bgp.FlattenPath(nil, u.Attrs.ASPath); len(p) == 0 || p[len(p)-1] != 24940 {
		t.Fatalf("path = %v, want origin 24940", p)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestMessage2ByteASSubtype(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	u := &bgp.Update{
		Attrs: bgp.PathAttributes{HasOrigin: true, Origin: bgp.OriginIGP,
			HasASPath: true, ASPath: bgp.Sequence(100, 200),
			NextHop: netip.MustParseAddr("192.0.2.1")},
		NLRI: []netip.Prefix{netip.MustParsePrefix("10.0.0.0/8")},
	}
	raw, err := u.Marshal(false)
	if err != nil {
		t.Fatal(err)
	}
	msg := &BGP4MPMessage{
		PeerAS: 100, LocalAS: 200,
		PeerIP:  netip.MustParseAddr("10.0.0.1"),
		LocalIP: netip.MustParseAddr("10.0.0.2"),
		AS4:     false, Data: raw,
	}
	if err := w.WriteMessage(t0, msg); err != nil {
		t.Fatal(err)
	}
	rec, err := NewReader(&buf).Next()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Header.Subtype != SubtypeBGP4MPMessage {
		t.Fatalf("subtype = %d", rec.Header.Subtype)
	}
	got, err := bgp.ParseUpdate(rec.Message.Data, rec.Message.AS4)
	if err != nil {
		t.Fatal(err)
	}
	if got.Attrs.ASPath.String() != "100 200" {
		t.Fatalf("path = %v", got.Attrs.ASPath)
	}
}

func TestStateChangeRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	sc := &BGP4MPStateChange{
		PeerAS: 64500, LocalAS: 12654,
		PeerIP:   netip.MustParseAddr("10.1.1.1"),
		LocalIP:  netip.MustParseAddr("10.1.1.2"),
		AS4:      true,
		OldState: StateEstablished, NewState: StateIdle,
	}
	if err := w.WriteStateChange(t0.Add(time.Hour), sc); err != nil {
		t.Fatal(err)
	}
	rec, err := NewReader(&buf).Next()
	if err != nil {
		t.Fatal(err)
	}
	if rec.StateChange == nil {
		t.Fatal("no state change payload")
	}
	if rec.StateChange.OldState != StateEstablished || rec.StateChange.NewState != StateIdle {
		t.Fatalf("states: %+v", rec.StateChange)
	}
}

func TestPeerIndexTableRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	tbl := &PeerIndexTable{
		CollectorBGPID: netip.MustParseAddr("193.0.0.56"),
		ViewName:       "rrc00",
		Peers: []Peer{
			{BGPID: netip.MustParseAddr("10.0.0.1"), IP: netip.MustParseAddr("10.0.0.1"), AS: 3320},
			{BGPID: netip.MustParseAddr("10.0.0.2"), IP: netip.MustParseAddr("10.0.0.2"), AS: 400000},
		},
	}
	if err := w.WritePeerIndexTable(t0, tbl); err != nil {
		t.Fatal(err)
	}
	rec, err := NewReader(&buf).Next()
	if err != nil {
		t.Fatal(err)
	}
	got := rec.PeerIndex
	if got == nil || got.ViewName != "rrc00" || len(got.Peers) != 2 {
		t.Fatalf("got %+v", got)
	}
	if got.Peers[1].AS != 400000 {
		t.Fatalf("peer AS = %v", got.Peers[1].AS)
	}
}

func TestRIBRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	rib := &RIBIPv4Unicast{
		Sequence: 7,
		Prefix:   netip.MustParsePrefix("178.239.176.0/20"),
		Entries: []RIBEntry{
			{
				PeerIndex:      0,
				OriginatedTime: t0,
				Attrs: bgp.PathAttributes{
					HasOrigin: true, Origin: bgp.OriginIGP,
					HasASPath: true, ASPath: bgp.Sequence(3320, 1299, 51167),
					NextHop: netip.MustParseAddr("10.0.0.1"),
				},
			},
			{
				PeerIndex:      1,
				OriginatedTime: t0.Add(time.Minute),
				Attrs: bgp.PathAttributes{
					HasOrigin: true, Origin: bgp.OriginIGP,
					HasASPath: true, ASPath: bgp.Sequence(174, 51167),
					NextHop: netip.MustParseAddr("10.0.0.2"),
				},
			},
		},
	}
	if err := w.WriteRIB(t0, rib); err != nil {
		t.Fatal(err)
	}
	rec, err := NewReader(&buf).Next()
	if err != nil {
		t.Fatal(err)
	}
	got := rec.RIB
	if got == nil || got.Sequence != 7 || got.Prefix != rib.Prefix || len(got.Entries) != 2 {
		t.Fatalf("got %+v", got)
	}
	if got.Entries[0].Attrs.ASPath.String() != "3320 1299 51167" {
		t.Fatalf("entry0 path = %v", got.Entries[0].Attrs.ASPath)
	}
	if got.Entries[1].PeerIndex != 1 || !got.Entries[1].OriginatedTime.Equal(t0.Add(time.Minute)) {
		t.Fatalf("entry1 = %+v", got.Entries[1])
	}
}

func TestMixedStreamRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	msg := &BGP4MPMessage{
		PeerAS: 1, LocalAS: 2, AS4: true,
		PeerIP:  netip.MustParseAddr("10.0.0.1"),
		LocalIP: netip.MustParseAddr("10.0.0.2"),
		Data:    sampleUpdate(t),
	}
	sc := &BGP4MPStateChange{
		PeerAS: 1, LocalAS: 2, AS4: true,
		PeerIP:   netip.MustParseAddr("10.0.0.1"),
		LocalIP:  netip.MustParseAddr("10.0.0.2"),
		OldState: StateEstablished, NewState: StateIdle,
	}
	for i := 0; i < 5; i++ {
		if err := w.WriteMessage(t0.Add(time.Duration(i)*time.Second), msg); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.WriteStateChange(t0.Add(10*time.Second), sc); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	var msgs, scs int
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if rec.Message != nil {
			msgs++
		}
		if rec.StateChange != nil {
			scs++
		}
	}
	if msgs != 5 || scs != 1 {
		t.Fatalf("msgs=%d scs=%d", msgs, scs)
	}
}

func TestTruncatedStream(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	msg := &BGP4MPMessage{
		PeerAS: 1, LocalAS: 2, AS4: true,
		PeerIP:  netip.MustParseAddr("10.0.0.1"),
		LocalIP: netip.MustParseAddr("10.0.0.2"),
		Data:    sampleUpdate(t),
	}
	if err := w.WriteMessage(t0, msg); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Cut inside the payload.
	r := NewReader(bytes.NewReader(full[:len(full)-4]))
	if _, err := r.Next(); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
	// Cut inside the header.
	r = NewReader(bytes.NewReader(full[:6]))
	if _, err := r.Next(); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
}

func TestUnsupportedRecordSkippable(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	// Hand-write an OSPF record (type 11) followed by a valid message.
	if err := w.write(append(w.begin(t0, 11, 0), 1, 2, 3)); err != nil {
		t.Fatal(err)
	}
	msg := &BGP4MPMessage{
		PeerAS: 1, LocalAS: 2, AS4: true,
		PeerIP:  netip.MustParseAddr("10.0.0.1"),
		LocalIP: netip.MustParseAddr("10.0.0.2"),
		Data:    sampleUpdate(t),
	}
	if err := w.WriteMessage(t0, msg); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	rec, err := r.Next()
	if !errors.Is(err, ErrUnsupported) {
		t.Fatalf("err = %v, want ErrUnsupported", err)
	}
	if rec == nil || rec.Header.Type != 11 {
		t.Fatalf("rec = %+v", rec)
	}
	rec, err = r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Message == nil {
		t.Fatal("could not continue past unsupported record")
	}
}

func TestIPv6PeerRejected(t *testing.T) {
	w := NewWriter(io.Discard)
	msg := &BGP4MPMessage{
		PeerAS: 1, LocalAS: 2, AS4: true,
		PeerIP:  netip.MustParseAddr("2001:db8::1"),
		LocalIP: netip.MustParseAddr("10.0.0.2"),
	}
	if err := w.WriteMessage(t0, msg); err == nil {
		t.Fatal("expected error for IPv6 peer")
	}
}

// Property: a stream of N random message records round-trips with
// identical per-record fields.
func TestStreamRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var buf bytes.Buffer
	w := NewWriter(&buf)
	type expect struct {
		peerAS bgp.ASN
		ts     time.Time
		prefix netip.Prefix
	}
	var want []expect
	for i := 0; i < 100; i++ {
		prefix := netip.PrefixFrom(
			netip.AddrFrom4([4]byte{byte(1 + rng.Intn(223)), byte(rng.Intn(256)), 0, 0}), 16)
		u := &bgp.Update{
			Attrs: bgp.PathAttributes{
				HasOrigin: true, Origin: bgp.OriginIGP,
				HasASPath: true, ASPath: bgp.Sequence(bgp.ASN(rng.Intn(65000)+1), bgp.ASN(rng.Intn(65000)+1)),
				NextHop: netip.MustParseAddr("192.0.2.1"),
			},
			NLRI: []netip.Prefix{prefix},
		}
		raw, err := u.Marshal(true)
		if err != nil {
			t.Fatal(err)
		}
		peerAS := bgp.ASN(rng.Intn(70000) + 1)
		ts := t0.Add(time.Duration(i) * time.Minute)
		msg := &BGP4MPMessage{
			PeerAS: peerAS, LocalAS: 12654, AS4: true,
			PeerIP:  netip.MustParseAddr("10.0.0.1"),
			LocalIP: netip.MustParseAddr("10.0.0.2"),
			Data:    raw,
		}
		if err := w.WriteMessage(ts, msg); err != nil {
			t.Fatal(err)
		}
		want = append(want, expect{peerAS, ts, prefix})
	}
	r := NewReader(&buf)
	for i, wnt := range want {
		rec, err := r.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if rec.Message.PeerAS != wnt.peerAS || !rec.Header.Timestamp.Equal(wnt.ts) {
			t.Fatalf("record %d header mismatch", i)
		}
		u, err := bgp.ParseUpdate(rec.Message.Data, rec.Message.AS4)
		if err != nil {
			t.Fatal(err)
		}
		if u.NLRI[0] != wnt.prefix {
			t.Fatalf("record %d prefix %v != %v", i, u.NLRI[0], wnt.prefix)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

// TestHugeLengthFailsOnMissingBytes: a header claiming a 4 GB payload
// followed by 100 bytes is a truncated record, found without allocating
// what the header claims.
func TestHugeLengthFailsOnMissingBytes(t *testing.T) {
	data := binary.BigEndian.AppendUint32(nil, uint32(t0.Unix()))
	data = binary.BigEndian.AppendUint16(data, TypeBGP4MP)
	data = binary.BigEndian.AppendUint16(data, SubtypeBGP4MPMessageAS4)
	data = binary.BigEndian.AppendUint32(data, 0xFFFFFFF0)
	data = append(data, make([]byte, 100)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := NewReader(bytes.NewReader(data)).Next()
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("reading the record allocated %d bytes, want < 1 MiB", grew)
	}
}

// TestRecordsDoNotAliasReader keeps every record of a mixed archive, the
// payloads of different sizes, then decodes the archive afresh: a kept
// record sharing the reader's reused buffer would show a later payload.
func TestRecordsDoNotAliasReader(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	peerIP, localIP := netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.0.0.2")
	if err := w.WritePeerIndexTable(t0, &PeerIndexTable{
		CollectorBGPID: localIP, ViewName: "rrc00",
		Peers: []Peer{{BGPID: peerIP, IP: peerIP, AS: 64500}, {BGPID: localIP, IP: localIP, AS: 64501}},
	}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 40; i++ {
		path := make([]bgp.ASN, i)
		for j := range path {
			path[j] = bgp.ASN(64500 + 7*i + j)
		}
		attrs := bgp.PathAttributes{
			HasOrigin: true, Origin: bgp.OriginIGP,
			HasASPath: true, ASPath: bgp.Sequence(path...), NextHop: peerIP,
		}
		prefix := netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(i), byte(3 * i), 0, 0}), 16)
		ts := t0.Add(time.Duration(i) * time.Second)
		if err := w.WriteRIB(ts, &RIBIPv4Unicast{Sequence: uint32(i), Prefix: prefix,
			Entries: []RIBEntry{{PeerIndex: i % 2, OriginatedTime: ts, Attrs: attrs}}}); err != nil {
			t.Fatal(err)
		}
		u := &bgp.Update{Attrs: attrs, NLRI: []netip.Prefix{prefix}}
		if i%3 == 0 {
			u = &bgp.Update{Withdrawn: []netip.Prefix{prefix}}
		}
		raw, err := u.Marshal(true)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WriteMessage(ts, &BGP4MPMessage{PeerAS: bgp.ASN(i), LocalAS: 12654,
			PeerIP: peerIP, LocalIP: localIP, AS4: true, Data: raw}); err != nil {
			t.Fatal(err)
		}
		if err := w.WriteStateChange(ts, &BGP4MPStateChange{PeerAS: bgp.ASN(i), LocalAS: 12654,
			PeerIP: peerIP, LocalIP: localIP, AS4: true, OldState: i % 7, NewState: StateEstablished}); err != nil {
			t.Fatal(err)
		}
	}
	archive := buf.Bytes()
	var kept []*Record
	r := NewReader(bytes.NewReader(archive))
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		kept = append(kept, rec)
	}
	fresh := NewReader(bytes.NewReader(archive))
	for i, want := range kept {
		got, err := fresh.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("record %d kept as %+v, decodes afresh as %+v", i, want, got)
		}
	}
	if len(kept) != 1+3*40 {
		t.Fatalf("read %d records, want %d", len(kept), 1+3*40)
	}
}

// TestWriteMessageAllocFree: a record is built in the Writer's one buffer
// and written with one Write.
func TestWriteMessageAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	w := NewWriter(io.Discard)
	msg := &BGP4MPMessage{
		PeerAS: 64500, LocalAS: 12654, AS4: true,
		PeerIP:  netip.MustParseAddr("10.1.1.1"),
		LocalIP: netip.MustParseAddr("10.1.1.2"),
		Data:    sampleUpdate(t),
	}
	if a := testing.AllocsPerRun(100, func() {
		if err := w.WriteMessage(t0, msg); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("WriteMessage allocates %.0f times per record, want 0", a)
	}
}

// TestNextMessageAllocs bounds decoding one BGP4MP message: the Record,
// the message and its copied Data, with the header and payload read into
// the Reader's own storage.
func TestNextMessageAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	var buf bytes.Buffer
	if err := NewWriter(&buf).WriteMessage(t0, &BGP4MPMessage{
		PeerAS: 64500, LocalAS: 12654, AS4: true,
		PeerIP:  netip.MustParseAddr("10.1.1.1"),
		LocalIP: netip.MustParseAddr("10.1.1.2"),
		Data:    sampleUpdate(t),
	}); err != nil {
		t.Fatal(err)
	}
	src := bytes.NewReader(buf.Bytes())
	r := NewReader(src)
	if a := testing.AllocsPerRun(100, func() {
		src.Reset(buf.Bytes())
		if rec, err := r.Next(); err != nil || rec.Message == nil {
			t.Fatalf("Next = %+v, %v", rec, err)
		}
	}); a > 3 {
		t.Errorf("Next allocates %.0f times per message, want at most 3", a)
	}
}

package bgpd

import (
	"net"
	"net/netip"
	"reflect"
	"sync"
	"testing"
	"time"

	"quicksand/internal/bgp"
	"quicksand/internal/obs"
)

// sunk is one call a recordingSink received.
type sunk struct {
	prefix   netip.Prefix
	withdraw bool // the path was nil
	path     []bgp.ASN
	flush    int // > 0: a Flush(n) call
}

// recordingSink records every call in order, and checks the stamp.
type recordingSink struct {
	t     *testing.T
	calls chan sunk
}

func (s recordingSink) Update(t time.Time, prefix netip.Prefix, path []bgp.ASN) {
	if t.IsZero() {
		s.t.Error("Update carries a zero batch stamp")
	}
	s.calls <- sunk{prefix: prefix, withdraw: path == nil, path: append([]bgp.ASN(nil), path...)}
}

func (s recordingSink) Flush(start time.Time, n int) {
	if start.IsZero() || n <= 0 {
		s.t.Errorf("Flush(%v, %d): want a stamped, non-empty batch", start, n)
	}
	s.calls <- sunk{flush: n}
}

type serverFixture struct {
	srv      *Server
	calls    chan sunk
	accepted *obs.Counter
	active   *obs.Gauge
	noPath   *obs.Counter
	dialFail *obs.Counter
}

func newServerFixture(t *testing.T, mutate func(*ServerConfig)) *serverFixture {
	t.Helper()
	reg := obs.NewRegistry()
	f := &serverFixture{
		calls:    make(chan sunk, 64), // every call of one test, so sinks never block
		accepted: reg.Counter("accepted_total", "test"),
		active:   reg.Gauge("active", "test"),
		noPath:   reg.Counter("no_path_total", "test"),
		dialFail: reg.Counter("dial_fail_total", "test"),
	}
	cfg := ServerConfig{
		Name:             "test",
		Speaker:          Config{ASN: 64500, BGPID: netip.MustParseAddr("198.51.100.1"), HoldTime: 3 * time.Second},
		Listen:           "127.0.0.1:0",
		EstablishTimeout: 5 * time.Second,
		ReadBatch:        1, // one UPDATE per batch: Flush placement is deterministic
		DialBackoffBase:  10 * time.Millisecond,
		DialBackoffMax:   40 * time.Millisecond,
		DialHealthyAfter: time.Minute,
		Seed:             1,
		Logf:             t.Logf,
		SessionsAccepted: f.accepted,
		SessionsActive:   f.active,
		DroppedNoASPath:  f.noPath,
		NewSink:          func(*Peer) UpdateSink { return recordingSink{t, f.calls} },
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.srv = srv
	t.Cleanup(srv.Shutdown)
	return f
}

func (f *serverFixture) next(t *testing.T) sunk {
	t.Helper()
	select {
	case c := <-f.calls:
		return c
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for the sink")
		return sunk{}
	}
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func dialPeer(t *testing.T, addr string, asn bgp.ASN) *Session {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := Establish(conn, Config{ASN: asn, BGPID: netip.MustParseAddr("203.0.113.1"), HoldTime: 3 * time.Second})
	if err != nil {
		conn.Close()
		t.Fatal(err)
	}
	return sess
}

func announce(path bgp.ASPath, hasPath bool, prefixes ...string) *bgp.Update {
	u := &bgp.Update{Attrs: bgp.PathAttributes{
		HasOrigin: true, Origin: bgp.OriginIGP,
		HasASPath: hasPath, ASPath: path,
		NextHop: netip.MustParseAddr("203.0.113.1"),
	}}
	for _, p := range prefixes {
		u.NLRI = append(u.NLRI, netip.MustParsePrefix(p))
	}
	return u
}

// TestServerSessionToSink drives one inbound session through the whole
// front: accept, handshake, registry row, the UPDATE → prefix-level
// contract as the sink sees it, and the row closing with the session.
func TestServerSessionToSink(t *testing.T) {
	f := newServerFixture(t, nil)
	f.srv.Start()
	sess := dialPeer(t, f.srv.Addr(), 64601)

	mixed := announce(bgp.Sequence(64601, 64496), true, "10.0.0.0/16", "10.1.0.0/16")
	mixed.Withdrawn = []netip.Prefix{netip.MustParsePrefix("192.0.2.0/24")}
	for _, u := range []*bgp.Update{
		mixed,
		announce(bgp.ASPath{}, false, "10.2.0.0/16", "10.3.0.0/16"), // no AS_PATH: dropped, counted
		announce(bgp.ASPath{}, true, "10.4.0.0/16"),                 // present but empty: an announcement
	} {
		if err := sess.SendUpdate(u); err != nil {
			t.Fatal(err)
		}
	}
	want := []sunk{
		{prefix: netip.MustParsePrefix("192.0.2.0/24"), withdraw: true}, // withdrawals first
		{prefix: netip.MustParsePrefix("10.0.0.0/16"), path: []bgp.ASN{64601, 64496}},
		{prefix: netip.MustParsePrefix("10.1.0.0/16"), path: []bgp.ASN{64601, 64496}},
		{flush: 1},
		{flush: 1}, // the path-less UPDATE: a batch with nothing in it
		{prefix: netip.MustParsePrefix("10.4.0.0/16")}, // empty path, yet not a withdrawal
		{flush: 1},
	}
	for i, w := range want {
		got := f.next(t)
		if !reflect.DeepEqual(got, w) {
			t.Fatalf("sink call %d = %+v, want %+v", i, got, w)
		}
	}
	if got := f.noPath.Value(); got != 2 {
		t.Errorf("dropped-no-AS_PATH counter = %d, want 2 (prefixes, not messages)", got)
	}

	p, ok := f.srv.Peer(0)
	if !ok || p.ID != 0 || p.PeerAS != 64601 || p.Source != "bgp" || p.Closed() {
		t.Fatalf("registry row 0 = %+v, %v", p, ok)
	}
	if _, ok := f.srv.Peer(1); ok {
		t.Error("Peer(1) exists with one session registered")
	}
	if f.accepted.Value() != 1 || f.active.Value() != 1 {
		t.Errorf("accepted %d active %v, want 1 and 1", f.accepted.Value(), f.active.Value())
	}

	sess.Close()
	waitUntil(t, "the row to close", p.Closed)
	if f.active.Value() != 0 || len(f.srv.Peers()) != 1 {
		t.Errorf("after close: active %v, %d rows; want 0 and the row kept", f.active.Value(), len(f.srv.Peers()))
	}
}

// TestFlattenPathKeepsEmptyDistinct pins nil-vs-empty — only an absent
// path may be nil, with or without a destination — and that a destination
// with room is the storage of the result.
func TestFlattenPathKeepsEmptyDistinct(t *testing.T) {
	scratch := make([]bgp.ASN, 0, 8)
	for _, dst := range [][]bgp.ASN{nil, scratch} {
		if got := FlattenPath(dst, bgp.ASPath{}); got == nil || len(got) != 0 {
			t.Errorf("FlattenPath(%#v, empty) = %#v, want non-nil empty", dst, got)
		}
	}
	two := bgp.ASPath{Segments: []bgp.Segment{
		{Type: bgp.SegmentSequence, ASes: []bgp.ASN{1, 2}},
		{Type: bgp.SegmentSet, ASes: []bgp.ASN{3}},
	}}
	if got := FlattenPath(nil, two); !reflect.DeepEqual(got, []bgp.ASN{1, 2, 3}) {
		t.Errorf("FlattenPath(two segments) = %v", got)
	}
	if len(emptyPath) != 0 {
		t.Error("flattening appended into the shared empty-path sentinel")
	}
	got := FlattenPath(append(scratch, 9, 9, 9, 9), two)
	if !reflect.DeepEqual(got, []bgp.ASN{1, 2, 3}) || &got[0] != &scratch[:1][0] {
		t.Errorf("FlattenPath into a destination = %v, want [1 2 3] over the destination's storage", got)
	}
}

// TestServerRegisterOrder checks in-process sources get sequential ids
// and that OnRegister sees them in id order even when registrations race.
func TestServerRegisterOrder(t *testing.T) {
	var mirrored []int // appended under the registry lock only
	f := newServerFixture(t, func(cfg *ServerConfig) {
		cfg.Listen = ""
		cfg.OnRegister = func(p *Peer) { mirrored = append(mirrored, p.ID) }
	})
	if f.srv.Addr() != "" {
		t.Errorf("Addr() = %q with inbound disabled", f.srv.Addr())
	}
	f.srv.Start() // no listener: a no-op
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.srv.Register("src", 64601)
		}()
	}
	wg.Wait()
	peers := f.srv.Peers()
	if len(peers) != 16 || len(mirrored) != 16 {
		t.Fatalf("%d rows, %d mirrored; want 16 each", len(peers), len(mirrored))
	}
	for i := range peers {
		if peers[i].ID != i || mirrored[i] != i {
			t.Fatalf("row %d has id %d, mirrored as %d", i, peers[i].ID, mirrored[i])
		}
	}
	f.srv.Shutdown()
	if !peers[0].Closed() || f.active.Value() != 0 {
		t.Errorf("Shutdown left row 0 open (active %v)", f.active.Value())
	}
}

// TestServerDefaults pins the one knob table both fronts run on: what
// NewServer fills in for the fields its owner left zero.
func TestServerDefaults(t *testing.T) {
	srv, err := NewServer(ServerConfig{Name: "test", Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	want := ServerConfig{
		Name: "test", EstablishTimeout: 10 * time.Second, ReadBatch: 64,
		DialBackoffBase: 500 * time.Millisecond, DialBackoffMax: 30 * time.Second,
		DialHealthyAfter: 30 * time.Second, Seed: 1,
	}
	got := srv.cfg
	got.Logf = nil
	if !reflect.DeepEqual(got, want) {
		t.Errorf("defaults = %+v, want %+v", got, want)
	}
}

// TestServerShutdownUnblocksHandshake parks a connection that never
// sends its OPEN: Shutdown must not wait out EstablishTimeout for it,
// and a connection arriving afterwards is refused.
func TestServerShutdownUnblocksHandshake(t *testing.T) {
	f := newServerFixture(t, func(cfg *ServerConfig) { cfg.EstablishTimeout = time.Minute })
	f.srv.Start()
	conn, err := net.Dial("tcp", f.srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	waitUntil(t, "the handshake to be tracked", func() bool {
		f.srv.mu.Lock()
		defer f.srv.mu.Unlock()
		return len(f.srv.rawConns) == 1
	})
	start := time.Now()
	f.srv.Shutdown()
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("Shutdown took %v with a silent peer mid-handshake", d)
	}
	f.srv.Shutdown() // idempotent
	if f.accepted.Value() != 0 {
		t.Errorf("a session registered without a handshake")
	}
	a, b := net.Pipe()
	defer b.Close()
	if _, err := f.srv.establish(a); err != ErrClosed {
		t.Errorf("establish after Shutdown: err = %v, want ErrClosed", err)
	}
}

// TestServerDialBacksOffAndCollects dials a collector that is down, then
// flaps, then stays up: failures are counted, a session that delivered
// nothing keeps the backoff growing, and a collector session's updates
// reach the sink like an inbound peer's.
func TestServerDialBacksOffAndCollects(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // nothing listens yet: dials are refused

	f := newServerFixture(t, func(cfg *ServerConfig) { cfg.Listen = "" })
	f.srv.Collect(addr, f.dialFail)
	waitUntil(t, "two refused dials", func() bool { return f.dialFail.Value() >= 2 })

	ln, err = net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer ln.Close()
	collector := Config{ASN: 64601, BGPID: netip.MustParseAddr("203.0.113.1"), HoldTime: 3 * time.Second}
	accept := func() *Session {
		t.Helper()
		conn, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		sess, err := Establish(conn, collector)
		if err != nil {
			conn.Close()
			t.Fatal(err)
		}
		return sess
	}
	accept().Close() // flap: handshake, then hang up with nothing sent
	up := accept()
	defer up.Close()
	if err := up.SendUpdate(announce(bgp.Sequence(64601, 666), true, "10.0.0.0/16")); err != nil {
		t.Fatal(err)
	}
	if got := f.next(t); got.prefix != netip.MustParsePrefix("10.0.0.0/16") || len(got.path) != 2 {
		t.Fatalf("collector update reached the sink as %+v", got)
	}
	peers := f.srv.Peers()
	if len(peers) != 2 || peers[1].Source != "collector" || peers[1].Remote != addr || !peers[0].Closed() {
		t.Fatalf("registry after a flap and a live session: %+v", peers)
	}
}

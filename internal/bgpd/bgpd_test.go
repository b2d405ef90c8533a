package bgpd

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/netip"
	"slices"
	"testing"
	"time"

	"quicksand/internal/bgp"
	"quicksand/internal/bgpsim"
	"quicksand/internal/topology"
)

var (
	speakerCfg = Config{
		ASN: 64500, BGPID: netip.MustParseAddr("10.0.0.1"),
		HoldTime: 30 * time.Second, AS4: true,
	}
	collectorCfg = Config{
		ASN: 12654, BGPID: netip.MustParseAddr("10.255.255.254"),
		HoldTime: 30 * time.Second, AS4: true,
	}
)

// pair establishes two session halves over an in-memory pipe and closes
// both when the test ends. By then nobody reads either end, and a Close
// whose Cease goes into an unread net.Pipe sits out teardown's one-second
// write deadline, so the cleanup drains both raw ends first.
func pair(t *testing.T, a, b Config) (*Session, *Session) {
	t.Helper()
	ca, cb := net.Pipe()
	type res struct {
		s   *Session
		err error
	}
	ch := make(chan res, 2)
	go func() {
		s, err := Establish(ca, a)
		ch <- res{s, err}
	}()
	go func() {
		s, err := Establish(cb, b)
		ch <- res{s, err}
	}()
	r1, r2 := <-ch, <-ch
	if r1.err != nil {
		t.Fatalf("establish: %v", r1.err)
	}
	if r2.err != nil {
		t.Fatalf("establish: %v", r2.err)
	}
	t.Cleanup(func() {
		go io.Copy(io.Discard, ca)
		go io.Copy(io.Discard, cb)
		r1.s.Close()
		r2.s.Close()
	})
	// Order by peer AS for deterministic returns.
	if r1.s.PeerAS() == b.ASN {
		return r1.s, r2.s
	}
	return r2.s, r1.s
}

// discard drops whatever s's peer writes from here on, for a test body
// that closes the peer while nothing else reads s.
func discard(s *Session) { go io.Copy(io.Discard, s.conn) }

func TestConfigValidation(t *testing.T) {
	bad := speakerCfg
	bad.ASN = 0
	if _, err := Establish(nil, bad); err == nil {
		t.Fatal("zero ASN accepted")
	}
	bad = speakerCfg
	bad.BGPID = netip.Addr{}
	if _, err := Establish(nil, bad); err == nil {
		t.Fatal("no BGPID accepted")
	}
	bad = speakerCfg
	bad.HoldTime = time.Second
	if _, err := Establish(nil, bad); err == nil {
		t.Fatal("sub-minimum hold time accepted")
	}
	bad = speakerCfg
	bad.HoldTime = 20 * time.Hour // 72000s would wrap to 6464s in the OPEN
	if _, err := Establish(nil, bad); err == nil {
		t.Fatal("hold time above 65535s accepted")
	}
}

func TestEstablishNegotiation(t *testing.T) {
	sp, col := pair(t, speakerCfg, collectorCfg)
	if sp.PeerAS() != 12654 || col.PeerAS() != 64500 {
		t.Fatalf("peer ASes: %v / %v", sp.PeerAS(), col.PeerAS())
	}
	if !sp.AS4() || !col.AS4() {
		t.Fatal("AS4 not negotiated")
	}
	if sp.HoldTime() != 30*time.Second {
		t.Fatalf("hold time = %v", sp.HoldTime())
	}
	if col.PeerID() != speakerCfg.BGPID {
		t.Fatalf("peer ID = %v", col.PeerID())
	}
}

func TestEstablishWideASN(t *testing.T) {
	wide := speakerCfg
	wide.ASN = 400000
	wide.AS4 = false // must be forced on automatically
	sp, col := pair(t, wide, collectorCfg)
	if col.PeerAS() != 400000 {
		t.Fatalf("collector saw AS %v, want 400000", col.PeerAS())
	}
	if !sp.AS4() {
		t.Fatal("AS4 should be auto-negotiated for wide ASNs")
	}
}

func TestAS4FallsBackWhenPeerLacksIt(t *testing.T) {
	no4 := collectorCfg
	no4.AS4 = false
	sp, col := pair(t, speakerCfg, no4)
	if sp.AS4() || col.AS4() {
		t.Fatal("AS4 negotiated although one side lacks the capability")
	}
}

func TestUpdateExchange(t *testing.T) {
	sp, col := pair(t, speakerCfg, collectorCfg)
	u := &bgp.Update{
		Attrs: bgp.PathAttributes{
			HasOrigin: true, Origin: bgp.OriginIGP,
			HasASPath: true, ASPath: bgp.Sequence(64500, 3320, 24940),
			NextHop: netip.MustParseAddr("10.0.0.1"),
		},
		NLRI: []netip.Prefix{netip.MustParsePrefix("78.46.0.0/15")},
	}
	errCh := make(chan error, 1)
	go func() { errCh <- sp.SendUpdate(u) }()
	got, err := col.RecvUpdate()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if len(got.NLRI) != 1 || got.NLRI[0] != u.NLRI[0] {
		t.Fatalf("NLRI = %v", got.NLRI)
	}
	if got.Attrs.ASPath.String() != u.Attrs.ASPath.String() {
		t.Fatalf("path = %v", got.Attrs.ASPath)
	}
}

func TestRecvSkipsKeepalives(t *testing.T) {
	sp, col := pair(t, speakerCfg, collectorCfg)
	// Manually inject a keepalive before an update.
	ka, _ := (&bgp.Keepalive{}).Marshal()
	go func() {
		sp.writeMu.Lock()
		sp.conn.Write(ka)
		sp.writeMu.Unlock()
		sp.SendUpdate(&bgp.Update{Withdrawn: []netip.Prefix{netip.MustParsePrefix("10.0.0.0/8")}})
	}()
	got, err := col.RecvUpdate()
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Withdrawn) != 1 {
		t.Fatalf("got %+v", got)
	}
}

func TestCloseSendsCease(t *testing.T) {
	sp, col := pair(t, speakerCfg, collectorCfg)
	go sp.Close()
	_, err := col.RecvUpdate()
	if !errors.Is(err, ErrNotification) {
		t.Fatalf("err = %v, want ErrNotification (Cease)", err)
	}
	// Sending after close fails (ErrClosed once teardown completes, or a
	// closed-pipe write error during the race with Close).
	if err := sp.SendUpdate(&bgp.Update{}); err == nil {
		t.Fatal("send after close succeeded")
	}
}

func TestHoldTimerExpires(t *testing.T) {
	ca, cb := net.Pipe()
	cfgA := speakerCfg
	cfgA.HoldTime = 3 * time.Second
	cfgB := collectorCfg
	cfgB.HoldTime = 3 * time.Second
	type res struct {
		s   *Session
		err error
	}
	ch := make(chan res, 2)
	go func() { s, err := Establish(ca, cfgA); ch <- res{s, err} }()
	go func() { s, err := Establish(cb, cfgB); ch <- res{s, err} }()
	r1, r2 := <-ch, <-ch
	if r1.err != nil || r2.err != nil {
		t.Fatalf("establish: %v %v", r1.err, r2.err)
	}
	// Kill both keepalive loops by stopping the peers' writers: close
	// one side's underlying conn write path by closing the session's
	// ticker source — simplest reliable approach: stop r2's keepalives
	// by closing its closed channel via Close, but that sends Cease.
	// Instead, starve r1: wrap by closing r2's conn abruptly.
	r2.s.conn.Close()
	_, err := r1.s.RecvUpdate()
	if err == nil {
		t.Fatal("expected error after peer vanished")
	}
	r1.s.Close()
}

func TestReplayCollectOverTCP(t *testing.T) {
	// Build a small simulated stream.
	g, err := topology.Generate(topology.GenConfig{
		Tier1: 3, Tier2: 10, Tier3: 40,
		Tier2PeerProb: 0.1, MaxT2Providers: 2, MaxT3Providers: 2, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	origins := map[netip.Prefix]bgp.ASN{}
	t3 := g.TierASNs(3)
	for i := 0; i < 12; i++ {
		origins[netip.MustParsePrefix(fmt.Sprintf("60.%d.0.0/16", i))] = t3[i]
	}
	sim, err := bgpsim.New(g, origins)
	if err != nil {
		t.Fatal(err)
	}
	cfg := bgpsim.DefaultConfig()
	cfg.Collectors = []bgpsim.CollectorSpec{{Name: "rrc00", Sessions: 2}}
	cfg.Duration = 12 * time.Hour
	cfg.LinkFailures = 10
	cfg.OriginChurnEvents = 30
	cfg.FlapEpisodes = 2
	cfg.MaxFlapCycles = 10
	cfg.PolicyEvents = 0
	cfg.ResetsPerSessionMean = 0
	st, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Real TCP on loopback.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	type result struct {
		got []*bgp.Update
		err error // nil once End-of-RIB ended the transfer
	}
	resCh := make(chan result, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			resCh <- result{err: err}
			return
		}
		sess, err := Establish(conn, collectorCfg)
		if err != nil {
			resCh <- result{err: err}
			return
		}
		defer sess.Close()
		var got []*bgp.Update
		for {
			u, err := sess.RecvUpdate()
			if err != nil || !u.AnnouncesOrWithdraws() {
				resCh <- result{got, err}
				return
			}
			got = append(got, u)
		}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	spCfg := speakerCfg
	spCfg.ASN = st.Sessions[0].PeerAS
	sess, err := Establish(conn, spCfg)
	if err != nil {
		t.Fatal(err)
	}
	sent, err := Replay(sess, st, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The Cease queues behind everything Replay wrote, so a transfer
	// that lost its End-of-RIB ends the collector's read too.
	sess.Close()
	res := <-resCh
	if res.err != nil {
		t.Fatalf("collector stopped without End-of-RIB after %d updates: %v", len(res.got), res.err)
	}

	// The collector sees session 0's visible initial table, then each of
	// its updates, in order: announcements with the simulated path,
	// withdrawals as withdrawals.
	type route struct {
		prefix netip.Prefix
		path   []bgp.ASN
	}
	var want []route
	for _, p := range st.Sessions[0].VisiblePrefixes() {
		if path, ok := st.Initial[0][p]; ok {
			want = append(want, route{p, path})
		}
	}
	withdrawals := 0
	for _, u := range st.Updates {
		if u.Session == 0 {
			want = append(want, route{u.Prefix, u.Path})
			if u.Withdraw() {
				withdrawals++
			}
		}
	}
	if withdrawals == 0 || len(want) == withdrawals {
		t.Fatalf("stream has %d withdrawals among %d updates; want both kinds", withdrawals, len(want))
	}
	// Replay's count excludes the End-of-RIB marker.
	if sent != len(want) || len(res.got) != len(want) {
		t.Fatalf("sent %d, collected %d, want %d", sent, len(res.got), len(want))
	}
	for i, w := range want {
		u := res.got[i]
		if len(w.path) == 0 {
			if len(u.NLRI) != 0 || len(u.Withdrawn) != 1 || u.Withdrawn[0] != w.prefix {
				t.Fatalf("update %d = %+v, want withdrawal of %v", i, u, w.prefix)
			}
			continue
		}
		if len(u.Withdrawn) != 0 || len(u.NLRI) != 1 || u.NLRI[0] != w.prefix ||
			!slices.Equal(bgp.FlattenPath(nil, u.Attrs.ASPath), w.path) {
			t.Fatalf("update %d = %+v, want %v via %v", i, u, w.prefix, w.path)
		}
	}
	// Out-of-range session index is rejected.
	if _, err := Replay(sess, st, 99); err == nil {
		t.Fatal("out-of-range session accepted")
	}
}

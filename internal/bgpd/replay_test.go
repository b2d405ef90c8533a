package bgpd

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/netip"
	"testing"

	"quicksand/internal/bgp"
	"quicksand/internal/bgpsim"
)

// replayStream builds a two-session stream whose session 0 has a
// 64-prefix visible table (60 of them with an initial path) and n
// updates, every fifth a withdrawal, with a session-1 update after every
// fourth. Paths run two to eight hops and end in a 4-octet ASN, so the
// two AS_PATH encodings differ.
func replayStream(n int) *bgpsim.Stream {
	path := func(i int) []bgp.ASN {
		p := []bgp.ASN{64500}
		for h := 0; h < i%7; h++ {
			p = append(p, bgp.ASN(3000+h*17+i%13))
		}
		return append(p, bgp.ASN(4200000000+i%97))
	}
	prefix := func(i int) netip.Prefix {
		return netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i / 256), byte(i), 0}), 24)
	}
	var visible []netip.Prefix
	initial := [2]map[netip.Prefix][]bgp.ASN{{}, {}}
	for i := range 64 {
		visible = append(visible, prefix(i))
		if i%16 != 3 {
			initial[0][prefix(i)] = path(i)
			initial[1][prefix(i)] = path(i + 1)
		}
	}
	st := &bgpsim.Stream{
		Sessions: []bgpsim.Session{
			bgpsim.NewSession("rrc00", 64500, visible),
			bgpsim.NewSession("rrc00", 64501, visible),
		},
		Initial: map[int]map[netip.Prefix][]bgp.ASN{0: initial[0], 1: initial[1]},
	}
	for i := range n {
		u := bgpsim.UpdateEvent{Session: 0, Prefix: prefix(i % 64)}
		if i%5 != 4 {
			u.Path = path(i)
		}
		st.Updates = append(st.Updates, u)
		if i%4 == 0 {
			st.Updates = append(st.Updates, bgpsim.UpdateEvent{Session: 1, Prefix: prefix(i % 64), Path: path(i + 2)})
		}
	}
	return st
}

// countingConn records the size of every Write on its net.Conn.
type countingConn struct {
	net.Conn
	writes []int
}

func (c *countingConn) Write(b []byte) (int, error) {
	c.writes = append(c.writes, len(b))
	return c.Conn.Write(b)
}

// discardConn is a net.Conn whose writes go nowhere; only Write is
// implemented.
type discardConn struct{ net.Conn }

func (discardConn) Write(b []byte) (int, error) { return len(b), nil }

// TestReplayWireMatchesPerUpdateMarshal pins Replay's bytes on the wire
// to one Marshal per UPDATE, End-of-RIB included: the bursts group the
// messages into writes of at least replayFlush bytes and change none of
// them.
func TestReplayWireMatchesPerUpdateMarshal(t *testing.T) {
	st := replayStream(2000)
	peer := netip.MustParseAddr("192.0.2.1")
	for _, as4 := range []bool{true, false} {
		t.Run(fmt.Sprintf("as4=%v", as4), func(t *testing.T) {
			var want []byte
			routed := 0
			add := func(u *bgp.Update) {
				raw, err := u.Marshal(as4)
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, raw...)
			}
			send := func(p netip.Prefix, path []bgp.ASN) {
				routed++
				if len(path) == 0 {
					add(&bgp.Update{Withdrawn: []netip.Prefix{p}})
					return
				}
				add(&bgp.Update{NLRI: []netip.Prefix{p}, Attrs: bgp.PathAttributes{
					HasOrigin: true, Origin: bgp.OriginIGP,
					HasASPath: true, ASPath: bgp.Sequence(path...),
					NextHop: peer,
				}})
			}
			for _, p := range st.Sessions[0].VisiblePrefixes() {
				if path, ok := st.Initial[0][p]; ok {
					send(p, path)
				}
			}
			for _, u := range st.Updates {
				if u.Session == 0 {
					send(u.Prefix, u.Path)
				}
			}
			add(&bgp.Update{})

			a, b := net.Pipe()
			read := make(chan []byte, 1)
			go func() {
				raw, _ := io.ReadAll(b)
				read <- raw
			}()
			conn := &countingConn{Conn: a}
			s := rawSession(conn)
			s.as4, s.peerID = as4, peer
			sent, err := Replay(s, st, 0)
			a.Close()
			got := <-read
			if err != nil {
				t.Fatal(err)
			}
			if sent != routed {
				t.Errorf("Replay returned %d, want %d routing UPDATEs", sent, routed)
			}
			if !bytes.Equal(got, want) {
				i := 0
				for i < min(len(got), len(want)) && got[i] == want[i] {
					i++
				}
				t.Fatalf("wire has %d bytes, want %d; first difference at byte %d", len(got), len(want), i)
			}
			w := conn.writes
			if len(w) < 3 {
				t.Fatalf("%d writes: want several full bursts and a partial last one", len(w))
			}
			for _, n := range w[:len(w)-1] {
				if n < replayFlush || n >= replayFlush+bgp.MaxMessageLen {
					t.Fatalf("%d writes: a burst before the last holds %d bytes", len(w), n)
				}
			}
			if last := w[len(w)-1]; last >= replayFlush {
				t.Fatalf("%d writes: the last burst holds %d bytes", len(w), last)
			}
		})
	}
}

// TestReplayAllocsIndependentOfLength: encoding reuses one buffer and
// one UPDATE per kind, so a session of 10,000 updates allocates no more
// than one of 100.
func TestReplayAllocsIndependentOfLength(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	s := rawSession(discardConn{})
	s.as4, s.peerID = true, netip.MustParseAddr("192.0.2.1")
	allocs := func(n int) float64 {
		st := replayStream(n)
		return testing.AllocsPerRun(5, func() {
			if _, err := Replay(s, st, 0); err != nil {
				t.Fatal(err)
			}
		})
	}
	if short, long := allocs(100), allocs(10_000); short != long {
		t.Fatalf("Replay allocates %v times for 100 updates, %v for 10,000", short, long)
	}
}

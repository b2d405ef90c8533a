package bgpd

import (
	"encoding/binary"
	"errors"
	"net"
	"net/netip"
	"testing"
	"time"

	"quicksand/internal/bgp"
	"quicksand/internal/bgpsim"
)

// rawSession wraps one end of a pipe in a Session without a handshake so
// the low-level read/write paths can be driven directly.
func rawSession(conn net.Conn) *Session {
	return &Session{
		conn: conn, localAS: 64500,
		closed: make(chan struct{}), kaDone: make(chan struct{}),
	}
}

func TestReadMessageTimeoutIsHoldExpired(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	s := rawSession(a)
	if _, _, err := s.readMessage(50 * time.Millisecond); !errors.Is(err, ErrHoldExpired) {
		t.Fatalf("idle read err = %v, want ErrHoldExpired", err)
	}
}

func TestReadMessageTruncatedBody(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	s := rawSession(a)
	go func() {
		// A valid header promising a 10-byte body, then a hangup.
		hdr := make([]byte, bgp.HeaderLen)
		for i := 0; i < bgp.MarkerLen; i++ {
			hdr[i] = 0xFF
		}
		binary.BigEndian.PutUint16(hdr[bgp.MarkerLen:], uint16(bgp.HeaderLen+10))
		hdr[bgp.MarkerLen+2] = bgp.TypeUpdate
		b.Write(hdr)
		b.Close()
	}()
	_, _, err := s.readMessage(0)
	if err == nil || errors.Is(err, ErrHoldExpired) {
		t.Fatalf("truncated body err = %v, want a non-timeout read error", err)
	}
}

func TestRecvUpdateHoldExpiry(t *testing.T) {
	_, col := pair(t, speakerCfg, collectorCfg)
	// Shrink the negotiated hold time after the fact so expiry is fast;
	// the speaker's 10s keepalive cadence cannot beat 100ms.
	col.holdTime = 100 * time.Millisecond
	if _, err := col.RecvUpdate(); !errors.Is(err, ErrHoldExpired) {
		t.Fatalf("RecvUpdate err = %v, want ErrHoldExpired", err)
	}
	// Expiry tears the session down: sends now fail fast.
	if err := col.SendUpdate(&bgp.Update{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("SendUpdate after expiry err = %v, want ErrClosed", err)
	}
	if _, err := col.RecvUpdate(); !errors.Is(err, ErrClosed) {
		t.Fatalf("RecvUpdate after expiry err = %v, want ErrClosed", err)
	}
}

func TestSendUpdateMarshalError(t *testing.T) {
	sp, _ := pair(t, speakerCfg, collectorCfg)
	u := &bgp.Update{
		Attrs: bgp.PathAttributes{HasOrigin: true, Origin: 9}, // out of range
		NLRI:  []netip.Prefix{netip.MustParsePrefix("10.0.0.0/8")},
	}
	if err := sp.SendUpdate(u); err == nil {
		t.Fatal("unmarshalable update accepted")
	}
}

func TestKeepaliveLoopStopsOnWriteError(t *testing.T) {
	a, b := net.Pipe()
	b.Close() // every write on a now fails immediately
	s := rawSession(a)
	go s.keepaliveLoop(10 * time.Millisecond)
	select {
	case <-s.kaDone:
	case <-time.After(5 * time.Second):
		t.Fatal("keepalive loop did not stop on write error")
	}
}

func TestEstablishMalformedOpenBody(t *testing.T) {
	conn, done := rawPeer(t, func(c net.Conn) {
		defer c.Close()
		readOneMessage(t, c)
		// Valid header declaring an OPEN, body too short to parse.
		body := []byte{4, 0} // version, then truncation
		hdr := make([]byte, bgp.HeaderLen)
		for i := 0; i < bgp.MarkerLen; i++ {
			hdr[i] = 0xFF
		}
		binary.BigEndian.PutUint16(hdr[bgp.MarkerLen:], uint16(bgp.HeaderLen+len(body)))
		hdr[bgp.MarkerLen+2] = bgp.TypeOpen
		c.Write(append(hdr, body...))
	})
	if _, err := Establish(conn, speakerCfg); err == nil {
		t.Fatal("malformed OPEN body accepted")
	}
	<-done
}

func TestNoHoldTimerNegotiated(t *testing.T) {
	zeroCfgA := Config{ASN: 64500, BGPID: netip.MustParseAddr("10.0.0.1"), AS4: true}
	zeroCfgB := Config{ASN: 12654, BGPID: netip.MustParseAddr("10.0.0.2"), AS4: true}
	sp, col := pair(t, zeroCfgA, zeroCfgB)
	if sp.HoldTime() != 0 || col.HoldTime() != 0 {
		t.Fatalf("hold times = %v, %v, want 0, 0", sp.HoldTime(), col.HoldTime())
	}
	// No keepalive loop runs, but updates still flow.
	u := &bgp.Update{
		Attrs: bgp.PathAttributes{
			HasOrigin: true, Origin: bgp.OriginIGP,
			HasASPath: true, ASPath: bgp.Sequence(64500),
			NextHop: netip.MustParseAddr("10.0.0.1"),
		},
		NLRI: []netip.Prefix{netip.MustParsePrefix("192.0.2.0/24")},
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
		t.Fatalf("received NLRI %v, want %v", got.NLRI, u.NLRI)
	}
}

func TestReplayRejectsBadSessionIndex(t *testing.T) {
	st := &bgpsim.Stream{}
	for _, si := range []int{-1, 0, 5} {
		if _, err := Replay(nil, st, si); err == nil {
			t.Errorf("session index %d accepted on empty stream", si)
		}
	}
}

func TestCollectStopsAtMax(t *testing.T) {
	sp, col := pair(t, speakerCfg, collectorCfg)
	u := &bgp.Update{
		Attrs: bgp.PathAttributes{
			HasOrigin: true, Origin: bgp.OriginIGP,
			HasASPath: true, ASPath: bgp.Sequence(64500),
			NextHop: netip.MustParseAddr("10.0.0.1"),
		},
		NLRI: []netip.Prefix{netip.MustParsePrefix("192.0.2.0/24")},
	}
	errCh := make(chan error, 1)
	go func() {
		for i := 0; i < 3; i++ {
			if err := sp.SendUpdate(u); err != nil {
				errCh <- err
				return
			}
		}
		errCh <- nil
	}()
	got, err := Collect(col, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("collected %d updates, want 2 (max)", len(got))
	}
	// Drain the third send so the speaker goroutine can finish.
	if _, err := col.RecvUpdate(); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
}

func TestCollectPropagatesReceiveError(t *testing.T) {
	sp, col := pair(t, speakerCfg, collectorCfg)
	sp.closeConn() // hard hangup, no NOTIFICATION
	if _, err := Collect(col, 0); err == nil {
		t.Fatal("collect on a dead session returned nil error")
	}
}

package bgpd

import (
	"errors"
	"net"
	"net/netip"
	"testing"
	"time"

	"quicksand/internal/bgp"
)

// rawPeer drives one end of a pipe with hand-crafted bytes so the
// negative paths of Establish can be exercised.
func rawPeer(t *testing.T, fn func(c net.Conn)) (net.Conn, chan struct{}) {
	t.Helper()
	a, b := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn(b)
	}()
	return a, done
}

func readOneMessage(t *testing.T, c net.Conn) []byte {
	t.Helper()
	hdr := make([]byte, bgp.HeaderLen)
	if _, err := readFull(c, hdr); err != nil {
		t.Errorf("reading header: %v", err)
		return nil
	}
	_, msgLen, err := bgp.ParseHeader(hdr)
	if err != nil {
		t.Errorf("parsing header: %v", err)
		return nil
	}
	raw := make([]byte, msgLen)
	copy(raw, hdr)
	if _, err := readFull(c, raw[bgp.HeaderLen:]); err != nil {
		t.Errorf("reading body: %v", err)
		return nil
	}
	return raw
}

func readFull(c net.Conn, buf []byte) (int, error) {
	n := 0
	for n < len(buf) {
		m, err := c.Read(buf[n:])
		n += m
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

func TestEstablishRejectsBadVersion(t *testing.T) {
	conn, done := rawPeer(t, func(c net.Conn) {
		defer c.Close()
		// Read the local OPEN, reply with a version-3 OPEN.
		readOneMessage(t, c)
		open := &bgp.Open{Version: 3, ASN: 1, HoldTime: 90,
			BGPID: mustAddr("10.9.9.9")}
		raw, _ := open.Marshal()
		c.Write(raw)
		// Absorb the NOTIFICATION the local side sends back.
		readOneMessage(t, c)
	})
	_, err := Establish(conn, speakerCfg)
	if err == nil {
		t.Fatal("version-3 peer accepted")
	}
	<-done
}

func TestEstablishNotificationInsteadOfOpen(t *testing.T) {
	conn, done := rawPeer(t, func(c net.Conn) {
		defer c.Close()
		readOneMessage(t, c)
		n := &bgp.Notification{Code: bgp.NotifCease}
		raw, _ := n.Marshal()
		c.Write(raw)
	})
	_, err := Establish(conn, speakerCfg)
	if !errors.Is(err, ErrNotification) {
		t.Fatalf("err = %v, want ErrNotification", err)
	}
	<-done
}

func TestEstablishGarbageHeader(t *testing.T) {
	conn, done := rawPeer(t, func(c net.Conn) {
		defer c.Close()
		readOneMessage(t, c)
		c.Write(make([]byte, bgp.HeaderLen)) // zero marker
		// The local side may attempt a NOTIFICATION; drain briefly.
		buf := make([]byte, 64)
		c.SetReadDeadline(time.Now().Add(time.Second))
		c.Read(buf)
	})
	_, err := Establish(conn, speakerCfg)
	if err == nil {
		t.Fatal("garbage header accepted")
	}
	<-done
}

func TestEstablishUnexpectedMessageAfterOpen(t *testing.T) {
	conn, done := rawPeer(t, func(c net.Conn) {
		defer c.Close()
		readOneMessage(t, c)
		open := &bgp.Open{Version: 4, ASN: 7, HoldTime: 90, BGPID: mustAddr("10.9.9.9")}
		raw, _ := open.Marshal()
		c.Write(raw)
		// Instead of the confirming KEEPALIVE, send an UPDATE.
		readOneMessage(t, c) // local keepalive
		u := &bgp.Update{}
		uraw, _ := u.Marshal(false)
		c.Write(uraw)
	})
	_, err := Establish(conn, speakerCfg)
	if err == nil {
		t.Fatal("UPDATE in OpenConfirm accepted")
	}
	<-done
}

func TestRecvUnexpectedOpenMidSession(t *testing.T) {
	sp, col := pair(t, speakerCfg, collectorCfg)
	open := &bgp.Open{Version: 4, ASN: 1, HoldTime: 90, BGPID: mustAddr("10.1.1.1")}
	raw, _ := open.Marshal()
	go func() {
		sp.writeMu.Lock()
		sp.conn.Write(raw)
		sp.writeMu.Unlock()
	}()
	if _, err := col.RecvUpdate(); err == nil {
		t.Fatal("mid-session OPEN accepted")
	}
}

func mustAddr(s string) netip.Addr { return netip.MustParseAddr(s) }

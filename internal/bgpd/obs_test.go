package bgpd

import (
	"net/netip"
	"testing"

	"quicksand/internal/bgp"
	"quicksand/internal/obs"
)

func TestSessionMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	met := NewMetrics(reg)
	a, b := speakerCfg, collectorCfg
	a.Metrics = met
	b.Metrics = met
	sp, col := pair(t, a, b)

	if got := met.Established.Value(); got != 2 {
		t.Fatalf("established = %d, want 2 (both halves)", got)
	}
	// The handshake sends and receives one OPEN and one KEEPALIVE per
	// side through the shared Metrics.
	if got := met.in[bgp.TypeOpen].Value(); got != 2 {
		t.Errorf("opens in = %d, want 2", got)
	}
	if got := met.out[bgp.TypeOpen].Value(); got != 2 {
		t.Errorf("opens out = %d, want 2", got)
	}

	u := &bgp.Update{
		Attrs: bgp.PathAttributes{
			HasOrigin: true, Origin: bgp.OriginIGP,
			HasASPath: true, ASPath: bgp.Sequence(64500, 3320),
			NextHop: netip.MustParseAddr("10.0.0.1"),
		},
		NLRI: []netip.Prefix{netip.MustParsePrefix("78.46.0.0/15")},
	}
	errCh := make(chan error, 1)
	go func() { errCh <- sp.SendUpdate(u) }()
	if _, err := col.RecvUpdate(); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if met.in[bgp.TypeUpdate].Value() != 1 || met.out[bgp.TypeUpdate].Value() != 1 {
		t.Errorf("updates in/out = %d/%d, want 1/1",
			met.in[bgp.TypeUpdate].Value(), met.out[bgp.TypeUpdate].Value())
	}

	// Close while the collector is reading, so the Cease NOTIFICATION is
	// actually delivered (net.Pipe writes block without a reader).
	recvDone := make(chan struct{})
	go func() { col.RecvUpdate(); close(recvDone) }()
	sp.Close()
	<-recvDone
	col.Close()
	if got := met.Closed.Value(); got != 2 {
		t.Errorf("closed = %d, want 2", got)
	}
	if met.out[bgp.TypeNotification].Value() == 0 {
		t.Error("no NOTIFICATION counted out")
	}
	if met.in[bgp.TypeNotification].Value() == 0 {
		t.Error("no NOTIFICATION counted in")
	}
}

func TestMetricsNilSafe(t *testing.T) {
	var m *Metrics
	m.MsgIn(bgp.TypeUpdate)
	m.MsgOut(99) // out of range must also be safe
	m.sessionEstablished()
	m.sessionClosed()

	m = NewMetrics(obs.NewRegistry())
	m.MsgIn(-1)
	m.MsgOut(200)
	if m.in[0].Value() != 1 || m.out[0].Value() != 1 {
		t.Errorf("out-of-range types not folded to other: in=%d out=%d",
			m.in[0].Value(), m.out[0].Value())
	}
}

func TestMetricsNilRegistry(t *testing.T) {
	m := NewMetrics(nil)
	m.MsgIn(bgp.TypeOpen)
	m.sessionEstablished()
	if m.Established.Value() != 0 {
		t.Fatal("nil-registry metrics recorded values")
	}
	a := speakerCfg
	a.Metrics = m
	pair(t, a, collectorCfg) // closed by its cleanup
}

package bgpd

import (
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"quicksand/internal/bgp"
)

// TestCloseMidKeepaliveRace pins the shutdown ordering under -race: Close
// racing a fast keepalive loop must never write a KEEPALIVE after the
// Cease NOTIFICATION, never write to a closed conn, and never leak the
// keepalive goroutine. The session is assembled by hand so the keepalive
// interval can be far below the protocol minimum.
func TestCloseMidKeepaliveRace(t *testing.T) {
	for iter := 0; iter < 50; iter++ {
		ca, cb := net.Pipe()
		s := &Session{
			conn:   ca,
			closed: make(chan struct{}), kaDone: make(chan struct{}),
			kaStarted: true,
		}
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			io.Copy(io.Discard, cb)
		}()
		go s.keepaliveLoop(20 * time.Microsecond)

		// Let a few keepalives fire, then slam Close from several
		// goroutines at once, mid-tick.
		time.Sleep(200 * time.Microsecond)
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s.Close()
			}()
		}
		wg.Wait()

		// Close returning implies the keepalive loop already exited.
		select {
		case <-s.kaDone:
		default:
			t.Fatal("Close returned before keepalive loop exited")
		}
		cb.Close()
		<-drained
	}
}

// TestCloseConcurrentWithSend races SendUpdate against Close over a real
// established session; every send must either succeed or fail cleanly,
// and teardown must complete.
func TestCloseConcurrentWithSend(t *testing.T) {
	sp, col := pair(t, speakerCfg, collectorCfg)
	go func() {
		for {
			if _, err := col.RecvUpdate(); err != nil {
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				sp.SendUpdate(&bgp.Update{})
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		sp.Close()
	}()
	wg.Wait()
	select {
	case <-sp.Done():
	default:
		t.Fatal("Done() not closed after Close")
	}
}

// TestOnCloseHookFiresOnce verifies the lifecycle hook runs exactly once
// regardless of how many goroutines race the teardown, and that Done()
// observes it.
func TestOnCloseHookFiresOnce(t *testing.T) {
	var fired atomic.Int32
	cfg := speakerCfg
	cfg.OnClose = func(s *Session) { fired.Add(1) }
	sp, col := pair(t, cfg, collectorCfg)
	discard(col)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp.Close()
		}()
	}
	wg.Wait()
	if got := fired.Load(); got != 1 {
		t.Fatalf("OnClose fired %d times, want 1", got)
	}
	select {
	case <-sp.Done():
	default:
		t.Fatal("Done() not closed")
	}
}

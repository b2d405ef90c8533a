package bgpd

import (
	"context"
	"errors"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"quicksand/internal/bgp"
	"quicksand/internal/obs"
)

// Peer is one row of a Server's registry: an established BGP session
// (inbound or dialed) or an in-process update source.
type Peer struct {
	ID     int
	PeerAS bgp.ASN
	Remote string
	Source string // "bgp", "collector", or "local" for an in-process source
	// Updates counts the peer's updates the owner accepted; the owner
	// bumps it wherever it considers an update taken.
	Updates atomic.Uint64

	sess   *Session
	closed atomic.Bool
}

// Closed reports whether the peer's session has ended.
func (p *Peer) Closed() bool { return p.closed.Load() }

// UpdateSink consumes one session's UPDATEs at prefix level, in wire
// order, on that session's reader goroutine.
type UpdateSink interface {
	// Update delivers one prefix-level update stamped with the start of
	// the read batch that carried it. A nil path is a withdrawal; a
	// non-nil empty path is an announcement whose AS_PATH attribute was
	// present but had no ASes. The path is lent: it is valid for the call
	// only (the caller reuses its storage for the next UPDATE), so a sink
	// that keeps it copies it.
	Update(t time.Time, prefix netip.Prefix, path []bgp.ASN)
	// Flush ends a read batch of n UPDATEs whose first came off the
	// socket at start.
	Flush(start time.Time, n int)
}

// ServerConfig parameterises a Server. NewServer fills a zero
// EstablishTimeout, ReadBatch, DialBackoff*, DialHealthyAfter or Seed
// with its default, so the fronts built on it share one knob table.
type ServerConfig struct {
	// Name prefixes log lines ("monitord", "fleet").
	Name    string
	Speaker Config
	// Listen is the TCP address accepting inbound sessions ("" disables).
	Listen string
	// EstablishTimeout bounds every OPEN/KEEPALIVE handshake (default 10s).
	EstablishTimeout time.Duration
	// ReadBatch bounds the UPDATEs decoded per RecvUpdateBatchStamped
	// (default 64).
	ReadBatch int
	// DialBackoffBase, DialBackoffMax, DialHealthyAfter and Seed
	// parameterise Collect's redial schedule (see Backoff; defaults
	// 500ms, 30s, 30s and 1).
	DialBackoffBase  time.Duration
	DialBackoffMax   time.Duration
	DialHealthyAfter time.Duration
	Seed             int64
	// Logf receives progress lines (required).
	Logf func(format string, args ...any)

	// SessionsAccepted, SessionsActive and DroppedNoASPath are the
	// owner's metric handles; the server registers no family itself.
	SessionsAccepted *obs.Counter
	SessionsActive   *obs.Gauge
	DroppedNoASPath  *obs.Counter

	// OnRegister, when set, runs for every new peer while the registry
	// lock is held, so whatever it mirrors the peer into sees peers in
	// id order.
	OnRegister func(*Peer)
	// NewSink returns the sink for one established session's updates.
	NewSink func(*Peer) UpdateSink
}

// Server is the session front of a long-running BGP consumer: it
// accepts inbound connections and dials outbound ones, runs every
// handshake under EstablishTimeout, keeps the peer registry, turns each
// session's UPDATEs into prefix-level updates for the owner's sink, and
// shuts all of it down in order. Create with NewServer, begin accepting
// with Start, stop with Shutdown.
type Server struct {
	cfg    ServerConfig
	ln     net.Listener
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup // acceptor, session readers, dial loops

	mu       sync.Mutex
	rawConns map[net.Conn]struct{} // connections mid-handshake; nil once shut down
	peers    []*Peer               // indexed by id; rows are never removed
}

// NewServer binds cfg.Listen (when set). Nothing runs until Start.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.EstablishTimeout <= 0 {
		cfg.EstablishTimeout = 10 * time.Second
	}
	if cfg.ReadBatch <= 0 {
		cfg.ReadBatch = 64
	}
	if cfg.DialBackoffBase <= 0 {
		cfg.DialBackoffBase = 500 * time.Millisecond
	}
	if cfg.DialBackoffMax <= 0 {
		cfg.DialBackoffMax = 30 * time.Second
	}
	if cfg.DialHealthyAfter <= 0 {
		cfg.DialHealthyAfter = 30 * time.Second
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	s := &Server{cfg: cfg, rawConns: make(map[net.Conn]struct{})}
	if cfg.Listen != "" {
		ln, err := net.Listen("tcp", cfg.Listen)
		if err != nil {
			return nil, err
		}
		s.ln = ln
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	return s, nil
}

// Addr returns the bound listener address ("" when inbound is disabled).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Start begins accepting inbound sessions.
func (s *Server) Start() {
	if s.ln == nil {
		return
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := s.ln.Accept()
			if err != nil {
				return
			}
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				sess, err := s.establish(conn)
				if err != nil {
					s.cfg.Logf("%s: handshake from %v failed: %v", s.cfg.Name, conn.RemoteAddr(), err)
					return
				}
				s.serve(sess, conn.RemoteAddr().String(), "bgp")
			}()
		}
	}()
}

// establish runs the OPEN handshake on conn under EstablishTimeout. The
// conn is tracked meanwhile so Shutdown can unblock the handshake; on
// any failure it is closed.
func (s *Server) establish(conn net.Conn) (*Session, error) {
	s.mu.Lock()
	if s.rawConns == nil {
		s.mu.Unlock()
		conn.Close()
		return nil, ErrClosed
	}
	s.rawConns[conn] = struct{}{}
	s.mu.Unlock()

	conn.SetDeadline(time.Now().Add(s.cfg.EstablishTimeout))
	sess, err := Establish(conn, s.cfg.Speaker)

	s.mu.Lock()
	delete(s.rawConns, conn) // no-op on the nil map Shutdown leaves
	s.mu.Unlock()
	if err != nil {
		conn.Close()
		return nil, err
	}
	conn.SetDeadline(time.Time{})
	return sess, nil
}

// Register adds an in-process update source (MRT replay, simulation
// streams, tests) to the registry so it is tracked like a BGP peer.
func (s *Server) Register(name string, peerAS bgp.ASN) *Peer {
	return s.register(nil, name, "local", peerAS)
}

func (s *Server) register(sess *Session, remote, source string, peerAS bgp.ASN) *Peer {
	s.mu.Lock()
	p := &Peer{ID: len(s.peers), PeerAS: peerAS, Remote: remote, Source: source, sess: sess}
	s.peers = append(s.peers, p)
	if s.cfg.OnRegister != nil {
		s.cfg.OnRegister(p)
	}
	s.mu.Unlock()
	s.cfg.SessionsAccepted.Inc()
	s.cfg.SessionsActive.Add(1)
	return p
}

// Peer returns the registry row with the given id.
func (s *Server) Peer(id int) (*Peer, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id < 0 || id >= len(s.peers) {
		return nil, false
	}
	return s.peers[id], true
}

// Peers snapshots the registry in id order.
func (s *Server) Peers() []*Peer {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Peer(nil), s.peers...)
}

func (s *Server) closePeer(p *Peer) {
	if p.closed.CompareAndSwap(false, true) {
		s.cfg.SessionsActive.Add(-1)
	}
	if p.sess != nil {
		p.sess.Close()
	}
}

// serve registers an established session and feeds its UPDATEs to a
// fresh sink until the session fails (peer NOTIFICATION, hold-timer
// expiry, or Shutdown closing it). Every update of a batch carries the
// batch-start stamp, so latency measured from it never under-reports.
func (s *Server) serve(sess *Session, remote, source string) *Peer {
	p := s.register(sess, remote, source, sess.PeerAS())
	defer s.closePeer(p)
	s.cfg.Logf("%s: session %d established with AS%d (%s %s)", s.cfg.Name, p.ID, uint32(p.PeerAS), source, remote)
	sink := s.cfg.NewSink(p)
	batch := make([]bgp.Update, s.cfg.ReadBatch)
	var scratch []bgp.ASN // every UPDATE's flattened path, lent to the sink
	for {
		n, start, err := sess.RecvUpdateBatchStamped(batch)
		if n > 0 {
			for i := range batch[:n] {
				if dropped := PrefixUpdates(&batch[i], start, sink, &scratch); dropped > 0 {
					s.cfg.DroppedNoASPath.Add(uint64(dropped))
				}
			}
			sink.Flush(start, n)
		}
		if err != nil {
			if !errors.Is(err, ErrClosed) {
				s.cfg.Logf("%s: session %d down: %v", s.cfg.Name, p.ID, err)
			}
			return p
		}
	}
}

// PrefixUpdates is the UPDATE → prefix-level contract: it delivers u to
// sink.Update once per prefix, stamped t, withdrawals (nil path) before
// announcements; batching, and so Flush, stays with the caller. The
// announced path is flattened into *scratch (grown as needed, reused by
// the next call) and lent to the sink. NLRI carrying no AS_PATH is no
// usable route: it is dropped, and the number of prefixes dropped is
// returned so the caller counts them instead of losing them silently.
func PrefixUpdates(u *bgp.Update, t time.Time, sink UpdateSink, scratch *[]bgp.ASN) (noASPath int) {
	for _, prefix := range u.Withdrawn {
		sink.Update(t, prefix, nil)
	}
	if len(u.NLRI) == 0 {
		return 0
	}
	if !u.Attrs.HasASPath {
		return len(u.NLRI)
	}
	*scratch = FlattenPath(*scratch, u.Attrs.ASPath)
	for _, prefix := range u.NLRI {
		sink.Update(t, prefix, *scratch)
	}
	return 0
}

// emptyPath marks an announcement with a present-but-empty AS_PATH.
var emptyPath = []bgp.ASN{}

// FlattenPath flattens an AS_PATH into one AS sequence over dst's
// storage (dst[:0]; nil allocates). A present-but-empty path (zero
// segments, or only empty segments) flattens to a non-nil empty slice so
// it stays an announcement; nil is reserved for withdrawals.
func FlattenPath(dst []bgp.ASN, p bgp.ASPath) []bgp.ASN {
	out := dst[:0]
	if out == nil {
		out = emptyPath
	}
	for _, seg := range p.Segments {
		out = append(out, seg.ASes...)
	}
	return out
}

// Collect maintains one outbound session to the route collector at addr
// on its own goroutine: dial, handshake, feed the session's updates to
// the sink exactly like an inbound peer's until it drops, then redial on
// the jittered exponential Backoff schedule until Shutdown. A session
// that delivered an update or survived DialHealthyAfter resets the
// schedule; a collector that handshakes and hangs up keeps backing off.
// failures counts every failed attempt.
func (s *Server) Collect(addr string, failures *obs.Counter) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		bo := NewBackoff(s.cfg.DialBackoffBase, s.cfg.DialBackoffMax, s.cfg.DialHealthyAfter, s.cfg.Seed, addr)
		dialer := &net.Dialer{Timeout: s.cfg.EstablishTimeout}
		for s.ctx.Err() == nil {
			var sess *Session
			conn, err := dialer.DialContext(s.ctx, "tcp", addr)
			if err == nil {
				sess, err = s.establish(conn)
			}
			if err != nil {
				failures.Inc()
				s.cfg.Logf("%s: dial %s: %v (retry in ~%v)", s.cfg.Name, addr, err, bo.Current())
				if !bo.Sleep(s.ctx) {
					return
				}
				bo.Fail()
				continue
			}
			established := time.Now()
			delivered := s.serve(sess, addr, "collector").Updates.Load() > 0
			if s.ctx.Err() != nil {
				return
			}
			bo.SessionEnded(established, delivered)
			s.cfg.Logf("%s: session with %s down (redial in ~%v)", s.cfg.Name, addr, bo.Current())
			if !bo.Sleep(s.ctx) {
				return
			}
		}
	}()
}

// Shutdown stops the front in order: dial loops cancelled, listener
// closed, pending handshakes unblocked, every session closed, and every
// goroutine the server started waited for. When it returns no sink will
// be called again. It is idempotent.
func (s *Server) Shutdown() {
	s.cancel()
	if s.ln != nil {
		s.ln.Close()
	}
	s.mu.Lock()
	raw := s.rawConns
	s.rawConns = nil // refuse late handshakes
	peers := append([]*Peer(nil), s.peers...)
	s.mu.Unlock()
	for c := range raw {
		c.Close()
	}
	for _, p := range peers {
		s.closePeer(p)
	}
	s.wg.Wait()
}

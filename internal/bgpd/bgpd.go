// Package bgpd implements a minimal live BGP-4 speaker: session
// establishment (OPEN exchange with 4-octet-AS capability negotiation),
// keepalives, hold-timer enforcement, UPDATE exchange and NOTIFICATION
// handling over any net.Conn.
//
// This is the transport the route collectors of the paper's methodology
// actually speak: internal/bgpsim streams can be replayed over real TCP
// to a Collector, which reconstructs the same (time, prefix, AS-PATH)
// tuples the offline analyses consume. It is deliberately small — no RIB,
// no policy — because its role here is wire-protocol fidelity, not
// routing.
package bgpd

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/netip"
	"sync"
	"time"

	"quicksand/internal/bgp"
)

// readerBufSize sizes each session's buffered reader: large enough that
// a burst of collector updates is absorbed in one read syscall, small
// enough that thousands of sessions stay cheap.
const readerBufSize = 64 << 10

// Config describes the local end of a session.
type Config struct {
	ASN   bgp.ASN
	BGPID netip.Addr
	// HoldTime is the proposed hold time (default 90s; the RFC minimum
	// of 3s is enforced unless zero, which disables the hold timer).
	HoldTime time.Duration
	// AS4 advertises the 4-octet-AS capability (default on when the
	// ASN needs it; set explicitly to negotiate on small ASNs too).
	AS4 bool
	// OnClose, when set, is invoked exactly once as the session finishes
	// tearing down — keepalives stopped, any final NOTIFICATION sent, and
	// the connection closed. It runs on whichever goroutine triggered the
	// teardown and must not call back into Close (the teardown is still
	// holding its once-guard).
	OnClose func(*Session)
	// Metrics, when set, counts session lifecycle events and messages
	// in/out. Typically one Metrics shared by all sessions of a daemon.
	Metrics *Metrics
}

func (c *Config) validate() error {
	if c.ASN == 0 {
		return errors.New("bgpd: ASN must be set")
	}
	if !c.BGPID.Is4() {
		return errors.New("bgpd: BGPID must be an IPv4 address")
	}
	if c.HoldTime != 0 && c.HoldTime < 3*time.Second {
		return fmt.Errorf("bgpd: hold time %v below the 3s minimum", c.HoldTime)
	}
	if c.HoldTime > math.MaxUint16*time.Second {
		return fmt.Errorf("bgpd: hold time %v above the OPEN field's 65535s", c.HoldTime)
	}
	return nil
}

// Errors surfaced by session operations.
var (
	ErrClosed       = errors.New("bgpd: session closed")
	ErrHoldExpired  = errors.New("bgpd: hold timer expired")
	ErrNotification = errors.New("bgpd: received NOTIFICATION")
)

// Session is an established BGP session.
type Session struct {
	conn net.Conn

	peerAS   bgp.ASN
	peerID   netip.Addr
	as4      bool // negotiated: both ends advertised the capability
	holdTime time.Duration

	writeMu sync.Mutex
	// br buffers conn on the read side so a burst of small messages
	// costs one syscall; readBuf is the reusable per-session message
	// buffer (both lazily initialised — only the single reader
	// goroutine touches them).
	br      *bufio.Reader
	readBuf []byte

	onClose func(*Session)
	met     *Metrics

	closeOnce sync.Once
	closed    chan struct{}
	// kaStarted records whether keepaliveLoop was ever launched; teardown
	// must not wait for a loop that never ran (Establish error paths send
	// NOTIFICATIONs before keepalives exist).
	kaStarted bool
	kaDone    chan struct{}
}

// PeerAS returns the peer's (capability-corrected) AS number.
func (s *Session) PeerAS() bgp.ASN { return s.peerAS }

// PeerID returns the peer's BGP identifier.
func (s *Session) PeerID() netip.Addr { return s.peerID }

// AS4 reports whether 4-octet AS_PATH encoding was negotiated.
func (s *Session) AS4() bool { return s.as4 }

// HoldTime returns the negotiated hold time (the minimum of both
// proposals; zero disables the hold timer).
func (s *Session) HoldTime() time.Duration { return s.holdTime }

// Establish performs the OPEN/KEEPALIVE handshake on conn and returns the
// session. Both ends call Establish concurrently, as in the BGP FSM's
// OpenSent/OpenConfirm states.
func Establish(conn net.Conn, cfg Config) (*Session, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	holdSecs := uint16(cfg.HoldTime / time.Second) // zero disables the hold timer on the wire too
	open := &bgp.Open{
		Version: 4, ASN: cfg.ASN, HoldTime: holdSecs, BGPID: cfg.BGPID,
		AS4: cfg.AS4 || cfg.ASN > 0xFFFF,
	}
	raw, err := open.Marshal()
	if err != nil {
		return nil, err
	}

	s := &Session{
		conn: conn, onClose: cfg.OnClose, met: cfg.Metrics,
		closed: make(chan struct{}), kaDone: make(chan struct{}),
	}

	// Send our OPEN and read the peer's concurrently: with synchronous
	// transports (net.Pipe) a sequential write would deadlock against
	// the peer doing the same.
	writeErr := make(chan error, 1)
	go func() {
		_, err := conn.Write(raw)
		if err == nil {
			s.met.MsgOut(bgp.TypeOpen)
		}
		writeErr <- err
	}()
	peerRaw, msgType, err := s.readMessage(0)
	if err != nil {
		return nil, fmt.Errorf("bgpd: reading peer OPEN: %w", err)
	}
	if err := <-writeErr; err != nil {
		return nil, fmt.Errorf("bgpd: sending OPEN: %w", err)
	}
	if msgType == bgp.TypeNotification {
		n, _ := bgp.ParseNotification(peerRaw)
		return nil, fmt.Errorf("%w: code %d subcode %d", ErrNotification, n.Code, n.Subcode)
	}
	if msgType != bgp.TypeOpen {
		return nil, fmt.Errorf("bgpd: expected OPEN, got type %d", msgType)
	}
	peerOpen, err := bgp.ParseOpen(peerRaw)
	if err != nil {
		return nil, err
	}
	if peerOpen.Version != 4 {
		s.notifyAndClose(bgp.NotifOpenMessageError, 1, nil)
		return nil, fmt.Errorf("bgpd: unsupported peer version %d", peerOpen.Version)
	}
	s.peerAS = peerOpen.ASN
	s.peerID = peerOpen.BGPID
	s.as4 = open.AS4 && peerOpen.AS4

	// Negotiated hold time: the smaller of the two proposals; zero on
	// either side disables it.
	s.holdTime = cfg.HoldTime
	peerHold := time.Duration(peerOpen.HoldTime) * time.Second
	if peerHold == 0 || (s.holdTime != 0 && peerHold < s.holdTime) {
		s.holdTime = peerHold
	}

	// Exchange the confirming KEEPALIVEs (again concurrently).
	ka, _ := (&bgp.Keepalive{}).Marshal()
	go func() {
		writeErr <- s.write(ka, 10*time.Second)
	}()
	if _, msgType, err = s.readMessage(s.holdTime); err != nil {
		return nil, fmt.Errorf("bgpd: awaiting KEEPALIVE: %w", err)
	}
	if err := <-writeErr; err != nil {
		return nil, err
	}
	if msgType != bgp.TypeKeepalive {
		return nil, fmt.Errorf("bgpd: expected KEEPALIVE, got type %d", msgType)
	}

	s.met.sessionEstablished()

	// Background keepalives at a third of the hold time.
	if s.holdTime > 0 {
		s.kaStarted = true
		go s.keepaliveLoop(s.holdTime / 3)
	} else {
		close(s.kaDone)
	}
	return s, nil
}

// write transmits raw under the write lock with a bounded deadline, so a
// peer that has stopped reading can never wedge the session's writers (a
// real risk with synchronous transports such as net.Pipe, and with dead
// TCP peers before keepalive timeouts fire).
func (s *Session) write(raw []byte, timeout time.Duration) error {
	err := s.writeRaw(raw, timeout)
	if err == nil && len(raw) > bgp.HeaderLen-1 {
		s.met.MsgOut(int(raw[bgp.HeaderLen-1]))
	}
	return err
}

// writeRaw transmits raw without message accounting (SendUpdates counts
// its own batch).
func (s *Session) writeRaw(raw []byte, timeout time.Duration) error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	if timeout > 0 {
		if err := s.conn.SetWriteDeadline(time.Now().Add(timeout)); err != nil {
			return err
		}
		defer s.conn.SetWriteDeadline(time.Time{})
	}
	_, err := s.conn.Write(raw)
	return err
}

func (s *Session) keepaliveLoop(interval time.Duration) {
	defer close(s.kaDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	ka, _ := (&bgp.Keepalive{}).Marshal()
	for {
		select {
		case <-s.closed:
			return
		case <-t.C:
			if err := s.write(ka, interval); err != nil {
				return
			}
		}
	}
}

// reader returns the session's buffered reader, creating it on first
// use (sessions built directly in tests never touch Establish).
func (s *Session) reader() *bufio.Reader {
	if s.br == nil {
		s.br = bufio.NewReaderSize(s.conn, readerBufSize)
	}
	return s.br
}

// readMessage reads one full BGP message, applying timeout as a read
// deadline when positive. The returned slice aliases the session's
// reusable message buffer and is only valid until the next read.
func (s *Session) readMessage(timeout time.Duration) ([]byte, int, error) {
	if timeout > 0 {
		if err := s.conn.SetReadDeadline(time.Now().Add(timeout)); err != nil {
			return nil, 0, err
		}
		defer s.conn.SetReadDeadline(time.Time{})
	}
	br := s.reader()
	if s.readBuf == nil {
		s.readBuf = make([]byte, bgp.MaxMessageLen)
	}
	hdr := s.readBuf[:bgp.HeaderLen]
	if _, err := io.ReadFull(br, hdr); err != nil {
		if isTimeout(err) {
			return nil, 0, ErrHoldExpired
		}
		return nil, 0, err
	}
	msgType, msgLen, err := bgp.ParseHeader(hdr)
	if err != nil {
		s.notifyAndClose(bgp.NotifMessageHeaderError, 0, nil)
		return nil, 0, err
	}
	raw := s.readBuf[:msgLen]
	if _, err := io.ReadFull(br, raw[bgp.HeaderLen:]); err != nil {
		if isTimeout(err) {
			return nil, 0, ErrHoldExpired
		}
		return nil, 0, err
	}
	s.met.MsgIn(msgType)
	return raw, msgType, nil
}

// bufferedMessage reports whether a complete BGP message is already
// sitting in the session's read buffer, i.e. whether another readMessage
// is guaranteed not to block. A buffered-but-malformed header counts as
// available so the read path surfaces its error.
func (s *Session) bufferedMessage() bool {
	br := s.reader()
	if br.Buffered() < bgp.HeaderLen {
		return false
	}
	hdr, err := br.Peek(bgp.HeaderLen)
	if err != nil {
		return false
	}
	_, msgLen, err := bgp.ParseHeader(hdr)
	if err != nil {
		return true
	}
	return br.Buffered() >= msgLen
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// SendUpdate transmits one UPDATE with the session's negotiated AS_PATH
// encoding.
func (s *Session) SendUpdate(u *bgp.Update) error {
	select {
	case <-s.closed:
		return ErrClosed
	default:
	}
	raw, err := u.Marshal(s.as4)
	if err != nil {
		return err
	}
	return s.write(raw, 0)
}

// RecvUpdate blocks until the next UPDATE arrives, transparently
// swallowing keepalives and enforcing the hold timer. A peer NOTIFICATION
// surfaces as ErrNotification; hold-timer expiry as ErrHoldExpired (after
// sending the corresponding NOTIFICATION). It is RecvUpdateBatch into a
// fresh one-element batch.
func (s *Session) RecvUpdate() (*bgp.Update, error) {
	dst := make([]bgp.Update, 1)
	if _, _, err := s.recvUpdateBatch(dst); err != nil {
		return nil, err
	}
	return &dst[0], nil
}

// RecvUpdateBatch decodes UPDATE messages into dst, blocking only for
// the first: once one UPDATE has arrived, every further message already
// sitting in the session's read buffer is decoded too, until the buffer
// runs dry or dst is full. Decoding reuses dst's retained slice capacity
// (bgp.ParseUpdateInto), so a long-lived dst amortises to zero
// allocations per message.
//
// It returns the number of updates decoded into dst[:n]; n may be
// positive even when err is non-nil (the error applies to the message
// after the n good ones). Keepalives are swallowed, the hold timer is
// enforced on the blocking read, and NOTIFICATION/close semantics match
// RecvUpdate.
func (s *Session) RecvUpdateBatch(dst []bgp.Update) (int, error) {
	n, _, err := s.recvUpdateBatch(dst)
	return n, err
}

// recvUpdateBatch is RecvUpdateBatch plus a batch-start timestamp:
// time.Now() taken the moment the first UPDATE of the batch came off the
// socket, before any of the batch was decoded. Latency measured from this
// stamp (it carries a monotonic reading) never under-reports: every
// update in the batch arrived at or after it, so per-update skew is
// bounded by the batch decode time rather than by the whole batch's
// socket dwell. The stamp is zero when n == 0.
func (s *Session) recvUpdateBatch(dst []bgp.Update) (int, time.Time, error) {
	var start time.Time
	if len(dst) == 0 {
		return 0, start, nil
	}
	n := 0
	for {
		select {
		case <-s.closed:
			return n, start, ErrClosed
		default:
		}
		if n > 0 && !s.bufferedMessage() {
			return n, start, nil
		}
		timeout := s.holdTime
		if n > 0 {
			timeout = 0 // reading buffered bytes; never blocks
		}
		raw, msgType, err := s.readMessage(timeout)
		if err != nil {
			if errors.Is(err, ErrHoldExpired) {
				s.notifyAndClose(bgp.NotifHoldTimerExpired, 0, nil)
			}
			return n, start, err
		}
		switch msgType {
		case bgp.TypeKeepalive:
			continue
		case bgp.TypeUpdate:
			if n == 0 {
				start = time.Now()
			}
			if err := bgp.ParseUpdateInto(raw, s.as4, &dst[n]); err != nil {
				return n, start, err
			}
			n++
			if n == len(dst) {
				return n, start, nil
			}
		case bgp.TypeNotification:
			nf, perr := bgp.ParseNotification(raw)
			if perr != nil {
				return n, start, perr
			}
			s.closeConn()
			return n, start, fmt.Errorf("%w: code %d subcode %d", ErrNotification, nf.Code, nf.Subcode)
		default:
			return n, start, fmt.Errorf("bgpd: unexpected message type %d", msgType)
		}
	}
}

// SendUpdates marshals a batch of UPDATEs into one buffer and transmits
// them in a single write — the sender-side twin of RecvUpdateBatch
// (collectors emit updates in bursts; one syscall per burst instead of
// one per message).
func (s *Session) SendUpdates(us []*bgp.Update) error {
	select {
	case <-s.closed:
		return ErrClosed
	default:
	}
	// One appender buffer for the whole burst: AppendMessage encodes
	// straight into it, so the burst costs a handful of buffer growths
	// rather than several allocations per message.
	raw := make([]byte, 0, 64*len(us))
	var err error
	for _, u := range us {
		if raw, err = u.AppendMessage(raw, s.as4); err != nil {
			return err
		}
	}
	if len(raw) == 0 {
		return nil
	}
	if err := s.writeRaw(raw, 0); err != nil {
		return err
	}
	for range us {
		s.met.MsgOut(bgp.TypeUpdate)
	}
	return nil
}

// SendRaw transmits a pre-encoded burst of n UPDATE messages in one
// write. raw must hold complete BGP messages produced with the
// session's negotiated AS_PATH encoding (bgp.Update.AppendMessage with
// AS4()); n is the message count, for accounting. Replay writes its
// bursts through it; load generators encode each burst once and replay
// it across iterations, keeping the sender cheap enough to saturate the
// receiver from the same machine.
func (s *Session) SendRaw(raw []byte, n int) error {
	select {
	case <-s.closed:
		return ErrClosed
	default:
	}
	if len(raw) == 0 {
		return nil
	}
	if err := s.writeRaw(raw, 0); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		s.met.MsgOut(bgp.TypeUpdate)
	}
	return nil
}

func (s *Session) notifyAndClose(code, subcode uint8, data []byte) {
	s.teardown(&bgp.Notification{Code: code, Subcode: subcode, Data: data})
}

func (s *Session) closeConn() {
	s.teardown(nil)
}

// teardown brings the session down exactly once, in an order that makes
// concurrent Close/keepaliveLoop/reader interleavings race-free:
//
//  1. close(closed) — new SendUpdate/RecvUpdate calls stop, and the
//     keepalive loop exits at its next wakeup;
//  2. wait for the keepalive loop, so no KEEPALIVE can ever be written
//     after the NOTIFICATION (or onto an already-closed conn);
//  3. best-effort send of the final NOTIFICATION (when one is due) under
//     a short deadline — if the peer is also tearing down (nobody
//     reading), the session must still come down;
//  4. close the conn and fire the OnClose lifecycle hook.
//
// Losers of the once-race block until the winner finishes, so Close
// returning means the teardown is complete on every path.
func (s *Session) teardown(n *bgp.Notification) {
	s.closeOnce.Do(func() {
		close(s.closed)
		if s.kaStarted {
			<-s.kaDone
		}
		if n != nil {
			if raw, err := n.Marshal(); err == nil {
				s.write(raw, time.Second)
			}
		}
		s.conn.Close()
		s.met.sessionClosed()
		if s.onClose != nil {
			s.onClose(s)
		}
	})
}

// Close sends a Cease NOTIFICATION and tears the session down. Safe to
// call multiple times and concurrently with any other session method;
// when it returns, the keepalive goroutine has exited.
func (s *Session) Close() error {
	s.notifyAndClose(bgp.NotifCease, 0, nil)
	return nil
}

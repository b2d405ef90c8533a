package fleet

import (
	"context"
	"net/netip"
	"strconv"
	"sync/atomic"
	"time"

	"quicksand/internal/bgp"
	"quicksand/internal/bgpd"
	"quicksand/internal/monitord"
)

// forwardBatch bounds how many queued updates a remote forwarder encodes
// into one SendRaw write.
const forwardBatch = 128

// inprocSink forwards straight into a shard daemon's ingest path —
// no sockets, no encoding, backpressure handled by the daemon's own
// bounded shard queues.
type inprocSink struct {
	d *monitord.Daemon
}

// register mirrors the source into the shard. The router registers
// every source in every shard in id order and nothing else registers
// with a shard, so the shard hands out the router's id — which is what
// makes fleet alerts carry the same Session as a single daemon's would.
func (s inprocSink) register(p *bgpd.Peer) {
	if id := s.d.RegisterSource(p.Remote, p.PeerAS); id != p.ID {
		panic("fleet: shard session id " + strconv.Itoa(id) + " diverged from router id " + strconv.Itoa(p.ID))
	}
}

func (s inprocSink) forward(p *bgpd.Peer, t time.Time, prefix netip.Prefix, path []bgp.ASN) {
	s.d.Ingest(p.ID, t, prefix, path)
}

func (s inprocSink) quiesce(deadline time.Time) bool {
	return s.d.WaitQuiesce(time.Until(deadline))
}

// fwdItem is one buffered update awaiting delivery to a remote shard.
// A nil path is a withdrawal; the semantic timestamp is intentionally
// absent — BGP carries none, so remote shards re-stamp on receipt.
type fwdItem struct {
	prefix netip.Prefix
	path   []bgp.ASN
}

// append encodes the item as one UPDATE message onto raw.
func (it fwdItem) append(raw []byte, as4 bool) ([]byte, error) {
	var u bgp.Update
	if it.path == nil {
		u.Withdrawn = []netip.Prefix{it.prefix}
	} else {
		u.NLRI = []netip.Prefix{it.prefix}
		u.Attrs = bgp.PathAttributes{
			HasOrigin: true, Origin: bgp.OriginIGP,
			HasASPath: true,
			NextHop:   netip.AddrFrom4([4]byte{203, 0, 113, 1}),
		}
		if len(it.path) > 0 {
			u.Attrs.ASPath = bgp.Sequence(it.path...)
		}
	}
	return u.AppendMessage(raw, as4)
}

// remoteSink forwards updates to a remote monitord over a real BGP
// session kept up by the session front's dial loop (bgpd.Server.Dial).
// Updates queue in a bounded channel; a dead shard triggers redial on
// the backoff schedule while the queue absorbs the outage, and
// undelivered items carry over to the next session — replay after
// redial. Queue overflow while the shard is down is dropped and
// counted rather than blocking the router's read loops.
type remoteSink struct {
	r       *Router
	idx     int
	shard   RemoteShard
	ch      chan fwdItem
	queued  atomic.Int64
	pending []fwdItem // undelivered carry-over; owned by the dial loop goroutine
}

func newRemoteSink(r *Router, idx int, shard RemoteShard) *remoteSink {
	if shard.Name == "" {
		shard.Name = "shard" + strconv.Itoa(idx)
	}
	return &remoteSink{
		r:     r,
		idx:   idx,
		shard: shard,
		ch:    make(chan fwdItem, r.cfg.ForwardBuffer),
	}
}

// register is a no-op: the remote daemon registers its own session when
// the forwarder's handshake completes, so remote-mode alerts carry the
// remote daemon's session ids (a documented fidelity trade).
func (rs *remoteSink) register(*bgpd.Peer) {}

func (rs *remoteSink) forward(_ *bgpd.Peer, _ time.Time, prefix netip.Prefix, path []bgp.ASN) {
	rs.queued.Add(1)
	select {
	case rs.ch <- fwdItem{prefix: prefix, path: path}:
	default:
		rs.queued.Add(-1)
		rs.r.met.forwardDropped[rs.idx].Inc()
	}
}

// quiesce waits for the replay queue to drain — everything handed to the
// forwarder has been written to the remote. The remote daemon's own
// pipeline latency is invisible from here; callers polling its alerts
// endpoint absorb that the usual way.
func (rs *remoteSink) quiesce(deadline time.Time) bool {
	for rs.queued.Load() > 0 {
		if !time.Now().Before(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// run owns one established forwarding session until it drops,
// reporting whether anything was delivered on it.
func (rs *remoteSink) run(ctx context.Context, sess *bgpd.Session) bool {
	// The forwarder only writes, so a dead shard would otherwise go
	// unnoticed until a send fails. A dedicated reader turns the
	// shard's NOTIFICATION (or a torn connection) into a prompt
	// session close, which unblocks the pump for redial.
	go func() {
		for {
			if _, err := sess.RecvUpdate(); err != nil {
				sess.Close()
				return
			}
		}
	}()
	rs.r.met.shardUp[rs.idx].Set(1)
	rs.r.cfg.Logf("fleet: forwarder %s up (AS%d, %d pending for replay)",
		rs.shard.Name, uint32(sess.PeerAS()), len(rs.pending))
	sent := rs.pump(ctx, sess)
	rs.r.met.shardUp[rs.idx].Set(0)
	return sent
}

// gather collects the next batch: carried-over pending items first, then
// whatever is queued, up to forwardBatch. Returns alive=false when the
// session died underneath us.
func (rs *remoteSink) gather(ctx context.Context, sess *bgpd.Session, pending []fwdItem) (batch []fwdItem, alive bool) {
	batch = pending
	if len(batch) == 0 {
		select {
		case it := <-rs.ch:
			batch = append(batch, it)
		case <-ctx.Done():
			// Shutdown: fall through and drain whatever is immediately
			// available for a final flush.
		case <-sess.Done():
			return batch, false
		}
	}
	for len(batch) < forwardBatch {
		select {
		case it := <-rs.ch:
			batch = append(batch, it)
		default:
			return batch, true
		}
	}
	return batch, true
}

// pump encodes queued updates into raw message batches and writes them
// until the session fails; undelivered items stay in rs.pending for the
// next session. Reports whether anything was delivered (feeds the
// backoff healthy-session heuristic).
func (rs *remoteSink) pump(ctx context.Context, sess *bgpd.Session) bool {
	sent := false
	var raw []byte
	for {
		batch, alive := rs.gather(ctx, sess, rs.pending)
		rs.pending = nil
		if !alive {
			rs.pending = batch
			return sent
		}
		if len(batch) == 0 {
			if ctx.Err() != nil {
				return sent
			}
			continue
		}
		raw = raw[:0]
		kept := batch[:0]
		for i := range batch {
			mark := len(raw)
			var err error
			if raw, err = batch[i].append(raw, sess.AS4()); err != nil {
				raw = raw[:mark]
				rs.queued.Add(-1)
				rs.r.met.forwardDropped[rs.idx].Inc()
				continue
			}
			kept = append(kept, batch[i])
		}
		if len(kept) == 0 {
			continue
		}
		if err := sess.SendRaw(raw, len(kept)); err != nil {
			rs.pending = append([]fwdItem(nil), kept...)
			return sent
		}
		rs.queued.Add(-int64(len(kept)))
		sent = true
		if ctx.Err() != nil && len(rs.ch) == 0 && rs.queued.Load() <= 0 {
			return sent
		}
	}
}

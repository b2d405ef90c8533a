package bgpd

import (
	"fmt"
	"net/netip"

	"quicksand/internal/bgp"
	"quicksand/internal/bgpsim"
)

// replayFlush is the size of Replay's bursts: the encode buffer goes to
// the wire each time it holds this many bytes, and once more at the end,
// so the peer reads many UPDATEs per read as it would from a real
// speaker's table transfer.
const replayFlush = 32 << 10

// Replay transmits one simulated collector session's view over a live BGP
// session: first the initial table (as a burst of announcements, exactly
// like a post-establishment routing table transfer), then every update in
// stream order, and an empty UPDATE last (End-of-RIB). Withdrawn
// prefixes become UPDATE withdrawals. It returns the number of routing
// UPDATEs that reached the wire, End-of-RIB excluded.
//
// Messages are encoded into one reused buffer and written in bursts of
// about replayFlush bytes; each message is the one SendUpdate would
// write, only the grouping into writes differs.
//
// Timing is not reproduced — archives carry timestamps, live sessions
// carry messages — so the receiving side records its own arrival times.
func Replay(s *Session, st *bgpsim.Stream, si int) (int, error) {
	if si < 0 || si >= len(st.Sessions) {
		return 0, fmt.Errorf("bgpd: session index %d out of range", si)
	}
	// One announcement and one withdrawal over one-element arrays: each
	// message swaps in its prefix and the stream's own (read-only) path,
	// so encoding allocates nothing per update.
	var (
		prefix [1]netip.Prefix
		seq    = [1]bgp.Segment{{Type: bgp.SegmentSequence}}
		ann    = bgp.Update{NLRI: prefix[:], Attrs: bgp.PathAttributes{
			HasOrigin: true, Origin: bgp.OriginIGP,
			HasASPath: true, ASPath: bgp.ASPath{Segments: seq[:]},
			NextHop: s.PeerID(),
		}}
		wd = bgp.Update{Withdrawn: prefix[:]}
	)
	buf := make([]byte, 0, replayFlush+bgp.MaxMessageLen)
	sent, pending := 0, 0
	flush := func() error {
		if err := s.SendRaw(buf, pending); err != nil {
			return err
		}
		sent += pending
		buf, pending = buf[:0], 0
		return nil
	}
	send := func(p netip.Prefix, path []bgp.ASN) error {
		prefix[0] = p
		u := &wd
		if len(path) > 0 {
			seq[0].ASes = path
			u = &ann
		}
		var err error
		if buf, err = u.AppendMessage(buf, s.as4); err != nil {
			return err
		}
		pending++
		if len(buf) < replayFlush {
			return nil
		}
		return flush()
	}
	for _, p := range st.Sessions[si].VisiblePrefixes() {
		path, ok := st.Initial[si][p]
		if !ok {
			continue
		}
		if err := send(p, path); err != nil {
			return sent, err
		}
	}
	for i := range st.Updates {
		u := &st.Updates[i]
		if u.Session != si {
			continue
		}
		if err := send(u.Prefix, u.Path); err != nil {
			return sent, err
		}
	}
	// End-of-RIB style empty UPDATE marks completion; it goes out with
	// the last burst and is not counted.
	routed := sent + pending
	buf, _ = (&bgp.Update{}).AppendMessage(buf, s.as4)
	pending++
	if err := flush(); err != nil {
		return sent, err
	}
	return routed, nil
}

package bgpd

import (
	"fmt"
	"net/netip"

	"quicksand/internal/bgp"
	"quicksand/internal/bgpsim"
)

// Replay transmits one simulated collector session's view over a live BGP
// session: first the initial table (as a burst of announcements, exactly
// like a post-establishment routing table transfer), then every update in
// stream order. Withdrawn prefixes become UPDATE withdrawals. It returns
// the number of UPDATE messages sent.
//
// Timing is not reproduced — archives carry timestamps, live sessions
// carry messages — so the receiving side records its own arrival times.
func Replay(s *Session, st *bgpsim.Stream, si int) (int, error) {
	if si < 0 || si >= len(st.Sessions) {
		return 0, fmt.Errorf("bgpd: session index %d out of range", si)
	}
	sent := 0
	send := func(prefix netip.Prefix, path []bgp.ASN) error {
		var u bgp.Update
		if len(path) == 0 {
			u.Withdrawn = []netip.Prefix{prefix}
		} else {
			u.NLRI = []netip.Prefix{prefix}
			u.Attrs = bgp.PathAttributes{
				HasOrigin: true, Origin: bgp.OriginIGP,
				HasASPath: true, ASPath: bgp.Sequence(path...),
				NextHop: s.PeerID(),
			}
		}
		if err := s.SendUpdate(&u); err != nil {
			return err
		}
		sent++
		return nil
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
	// End-of-RIB style empty UPDATE marks completion.
	if err := s.SendUpdate(&bgp.Update{}); err != nil {
		return sent, err
	}
	return sent, nil
}

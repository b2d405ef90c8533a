package bgpsim

import (
	"errors"
	"fmt"
	"io"
	"net/netip"
	"slices"
	"time"

	"quicksand/internal/bgp"
	"quicksand/internal/mrt"
)

// Session addressing for MRT export: session i peers from 10.(i/250).(i%250).1
// toward the collector at 10.255.255.254, mirroring how RIS assigns one
// address per peer.
func sessionPeerIP(si int) netip.Addr {
	return netip.AddrFrom4([4]byte{10, byte(si / 250), byte(si % 250), 1})
}

var collectorIP = netip.AddrFrom4([4]byte{10, 255, 255, 254})

// ExportRIB writes a TABLE_DUMP_V2 snapshot of the stream's initial state
// for one collector: a PEER_INDEX_TABLE naming that collector's sessions
// followed by one RIB record per prefix. This is the "first path at the
// beginning of the month" baseline in archive form.
func (st *Stream) ExportRIB(w io.Writer, collector string) error {
	mw := mrt.NewWriter(w)
	var sessIdx []int
	for si := range st.Sessions {
		if st.Sessions[si].Collector == collector {
			sessIdx = append(sessIdx, si)
		}
	}
	if len(sessIdx) == 0 {
		return fmt.Errorf("bgpsim: no sessions for collector %q", collector)
	}
	tbl := &mrt.PeerIndexTable{CollectorBGPID: collectorIP, ViewName: collector}
	for _, si := range sessIdx {
		tbl.Peers = append(tbl.Peers, mrt.Peer{
			BGPID: sessionPeerIP(si),
			IP:    sessionPeerIP(si),
			AS:    st.Sessions[si].PeerAS,
		})
	}
	if err := mw.WritePeerIndexTable(st.Start, tbl); err != nil {
		return err
	}

	// Gather the prefix universe across this collector's sessions.
	prefixSet := make(map[netip.Prefix]bool)
	for _, si := range sessIdx {
		for p := range st.Initial[si] {
			prefixSet[p] = true
		}
	}
	prefixes := make([]netip.Prefix, 0, len(prefixSet))
	for p := range prefixSet {
		prefixes = append(prefixes, p)
	}
	slices.SortFunc(prefixes, bgp.ComparePrefix)

	// One record and one segment per session serve every prefix:
	// WriteRIB encodes them before the next prefix reuses them.
	rec := &mrt.RIBIPv4Unicast{}
	segs := make([]bgp.Segment, len(sessIdx))
	for seq, p := range prefixes {
		rec.Sequence, rec.Prefix, rec.Entries = uint32(seq), p, rec.Entries[:0]
		for local, si := range sessIdx {
			path, ok := st.Initial[si][p]
			if !ok {
				continue
			}
			segs[local] = bgp.Segment{Type: bgp.SegmentSequence, ASes: path}
			rec.Entries = append(rec.Entries, mrt.RIBEntry{
				PeerIndex:      local,
				OriginatedTime: st.Start,
				Attrs:          pathAttrs(segs[local:local+1:local+1], si),
			})
		}
		if len(rec.Entries) == 0 {
			continue
		}
		if err := mw.WriteRIB(st.Start, rec); err != nil {
			return err
		}
	}
	return nil
}

// pathAttrs is the attribute set of every exported route: IGP origin, the
// path as seg (one AS_SEQUENCE segment, borrowed, not copied) and session
// si's address as next hop.
func pathAttrs(seg []bgp.Segment, si int) bgp.PathAttributes {
	return bgp.PathAttributes{
		HasOrigin: true, Origin: bgp.OriginIGP,
		HasASPath: true, ASPath: bgp.ASPath{Segments: seg},
		NextHop: sessionPeerIP(si),
	}
}

// ExportUpdates writes one collector's update stream as BGP4MP records:
// BGP4MP_MESSAGE_AS4 for announcements and withdrawals, STATE_CHANGE_AS4
// pairs for session resets, all in timestamp order. The ground-truth
// Transfer flag is intentionally not representable — real archives don't
// carry it either, which is what makes reset filtering a heuristic.
func (st *Stream) ExportUpdates(w io.Writer, collector string) error {
	// The records in time order, ties in the order they are listed here:
	// updates, then resets with each reset's down before its up. A key's
	// index is the update's, or nU + 2*reset (+1 for the up).
	nU, n := len(st.Updates), 0
	for i := range st.Updates {
		if st.Sessions[st.Updates[i].Session].Collector == collector {
			n++
		}
	}
	keys := make([]timeKey, 0, n)
	for i := range st.Updates {
		if u := &st.Updates[i]; st.Sessions[u.Session].Collector == collector {
			keys = append(keys, keyOf(u.Time, i))
		}
	}
	for i := range st.Resets {
		if r := &st.Resets[i]; st.Sessions[r.Session].Collector == collector {
			keys = append(keys, keyOf(r.Down, nU+2*i), keyOf(r.Up, nU+2*i+1))
		}
	}
	slices.SortFunc(keys, compareKeys)

	// One UPDATE, one segment and one record, reused for every update.
	mw := mrt.NewWriter(w)
	var msg bgp.Update
	var pfx [1]netip.Prefix
	seg := []bgp.Segment{{Type: bgp.SegmentSequence}}
	rec := mrt.BGP4MPMessage{LocalAS: collectorAS, LocalIP: collectorIP, AS4: true}
	for _, k := range keys {
		i := k.index()
		if i >= nU {
			r := &st.Resets[(i-nU)/2]
			sc := &mrt.BGP4MPStateChange{
				PeerAS: st.Sessions[r.Session].PeerAS, LocalAS: collectorAS,
				PeerIP: sessionPeerIP(r.Session), LocalIP: collectorIP, AS4: true,
				OldState: mrt.StateEstablished, NewState: mrt.StateIdle,
			}
			at := r.Down
			if (i-nU)%2 == 1 {
				sc.OldState, sc.NewState, at = mrt.StateOpenConfirm, mrt.StateEstablished, r.Up
			}
			if err := mw.WriteStateChange(at, sc); err != nil {
				return err
			}
			continue
		}
		u := &st.Updates[i]
		pfx[0] = u.Prefix
		if u.Withdraw() {
			msg.Withdrawn, msg.NLRI, msg.Attrs = pfx[:], nil, bgp.PathAttributes{}
		} else {
			seg[0].ASes = u.Path
			msg.Withdrawn, msg.NLRI, msg.Attrs = nil, pfx[:], pathAttrs(seg, u.Session)
		}
		raw, err := msg.AppendMessage(rec.Data[:0], true)
		if err != nil {
			return err
		}
		rec.PeerAS, rec.PeerIP, rec.Data = st.Sessions[u.Session].PeerAS, sessionPeerIP(u.Session), raw
		if err := mw.WriteMessage(u.Time, &rec); err != nil {
			return err
		}
	}
	return nil
}

// collectorAS is the ASN the pseudo-collector speaks BGP from (RIPE NCC's
// real collectors use AS12654).
const collectorAS bgp.ASN = 12654

// ImportMRT reconstructs a single-collector Stream from a RIB snapshot and
// an update archive previously produced by ExportRIB/ExportUpdates (or any
// archive following the same conventions). Visibility sets are inferred
// from the prefixes each session carries. Transfer flags cannot be
// recovered from the archive; the analysis layer's reset heuristic is the
// intended remedy.
func ImportMRT(rib, updates io.Reader, collector string) (*Stream, error) {
	st := &Stream{Initial: make(map[int]map[netip.Prefix][]bgp.ASN)}
	var slab pathSlab

	rr := mrt.NewReader(rib)
	var peers []mrt.Peer
	peerToSession := make(map[netip.Addr]int)
	for {
		rec, err := rr.Next()
		if err == io.EOF {
			break
		}
		if errors.Is(err, mrt.ErrUnsupported) {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("bgpsim: reading RIB: %w", err)
		}
		switch {
		case rec.PeerIndex != nil:
			peers = rec.PeerIndex.Peers
			for i, p := range peers {
				sess := Session{Collector: collector, PeerAS: p.AS, visible: make(map[netip.Prefix]bool)}
				st.Sessions = append(st.Sessions, sess)
				st.Initial[i] = make(map[netip.Prefix][]bgp.ASN)
				peerToSession[p.IP] = i
			}
			if st.Start.IsZero() || rec.Header.Timestamp.Before(st.Start) {
				st.Start = rec.Header.Timestamp
			}
		case rec.RIB != nil:
			for _, e := range rec.RIB.Entries {
				if e.PeerIndex < 0 || e.PeerIndex >= len(peers) {
					return nil, fmt.Errorf("bgpsim: RIB entry peer index %d out of range", e.PeerIndex)
				}
				if !e.Attrs.HasASPath {
					continue
				}
				st.Initial[e.PeerIndex][rec.RIB.Prefix] = slab.flatten(e.Attrs.ASPath)
				st.Sessions[e.PeerIndex].visible[rec.RIB.Prefix] = true
			}
		}
	}
	if len(st.Sessions) == 0 {
		return nil, fmt.Errorf("bgpsim: RIB snapshot has no PEER_INDEX_TABLE")
	}

	ur := mrt.NewReader(updates)
	resetDown := make(map[int]time.Time)
	var log updateLog
	var u bgp.Update // each message decodes into the one UPDATE
	for {
		rec, err := ur.Next()
		if err == io.EOF {
			st.Updates = log.inOrder()
			return st, nil
		}
		if errors.Is(err, mrt.ErrUnsupported) {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("bgpsim: reading updates: %w", err)
		}
		switch {
		case rec.Message != nil:
			si, ok := peerToSession[rec.Message.PeerIP]
			if !ok {
				return nil, fmt.Errorf("bgpsim: update from unknown peer %v", rec.Message.PeerIP)
			}
			if err := bgp.ParseUpdateInto(rec.Message.Data, rec.Message.AS4, &u); err != nil {
				return nil, err
			}
			for _, p := range u.Withdrawn {
				log.add(UpdateEvent{Time: rec.Header.Timestamp, Session: si, Prefix: p})
				st.Sessions[si].visible[p] = true
			}
			if len(u.NLRI) > 0 && u.Attrs.HasASPath {
				path := slab.flatten(u.Attrs.ASPath)
				for _, p := range u.NLRI {
					log.add(UpdateEvent{Time: rec.Header.Timestamp, Session: si, Prefix: p, Path: path})
					st.Sessions[si].visible[p] = true
				}
			}
		case rec.StateChange != nil:
			si, ok := peerToSession[rec.StateChange.PeerIP]
			if !ok {
				continue
			}
			if rec.StateChange.NewState != mrt.StateEstablished {
				resetDown[si] = rec.Header.Timestamp
				continue
			}
			down, ok := resetDown[si]
			if !ok {
				down = rec.Header.Timestamp
			}
			st.Resets = append(st.Resets, ResetEvent{Session: si, Down: down, Up: rec.Header.Timestamp})
			delete(resetDown, si)
		}
		if st.End.Before(rec.Header.Timestamp) {
			st.End = rec.Header.Timestamp
		}
	}
}

package monitord

import (
	"errors"
	"fmt"
	"io"
	"net/netip"
	"slices"
	"time"

	"quicksand/internal/bgp"
	"quicksand/internal/bgpd"
	"quicksand/internal/mrt"
)

// MRTStats reports what one archive ingest fed into the pipeline.
type MRTStats struct {
	Records  int // MRT records decoded (messages, state changes, peer tables, RIB rows)
	Updates  int // prefix-level updates enqueued
	Sessions int // distinct peers seen (new source sessions registered)
	Skipped  int // unsupported or undecodable records, and RIB entries naming no peer
	NoASPath int // announced prefixes dropped because they carried no AS_PATH
}

// ingestSink feeds one archived peer's prefix-level updates into the
// daemon under its source session, counting what was enqueued. Archive
// timestamps are months old, so they go in through Ingest — which takes
// its own receive stamp for the latency histograms — never through a
// session sink, whose stamp is the latency origin. Ingest queues the path
// it is given and readMRT only lends one, so Update copies it.
type ingestSink struct {
	d       *Daemon
	session int
	stats   *MRTStats
}

func (s ingestSink) Update(t time.Time, prefix netip.Prefix, path []bgp.ASN) {
	if err := s.d.Ingest(s.session, t, prefix, slices.Clone(path)); err == nil {
		s.stats.Updates++
	}
}

func (ingestSink) Flush(time.Time, int) {} // archives have no read batches

// readMRT replays an MRT archive into d as if each peer in the archive
// were a connected session. One source session is registered per
// distinct peer address (named after label), every BGP4MP update is
// enqueued with its record timestamp, and every TABLE_DUMP_V2 RIB entry
// becomes an announcement at the dump's timestamp — the monitor observes
// both like live updates, so a poisoned table alarms too. Unsupported
// records are skipped, and announcements without an AS_PATH are dropped
// and counted, as on a live session.
//
// The call returns once everything is enqueued; the stats are valid even
// alongside an error.
func readMRT(d *Daemon, r io.Reader, label string) (*MRTStats, error) {
	stats := &MRTStats{}
	sessions := make(map[netip.Addr]int) // peer address -> source session
	sink := func(ip netip.Addr, as bgp.ASN) ingestSink {
		si, ok := sessions[ip]
		if !ok {
			si = d.RegisterSource(fmt.Sprintf("%s peer %v", label, ip), as)
			sessions[ip] = si
			stats.Sessions++
		}
		return ingestSink{d, si, stats}
	}
	var peers []mrt.Peer  // the peer table later RIB entries index into
	var scratch []bgp.ASN // each record's flattened path, lent to the sink
	var u bgp.Update      // each message decodes into the one UPDATE
	rd := mrt.NewReader(r)
	for {
		rec, err := rd.Next()
		if err == io.EOF {
			return stats, nil
		}
		if errors.Is(err, mrt.ErrUnsupported) {
			stats.Skipped++
			continue
		}
		if err != nil {
			return stats, fmt.Errorf("monitord: reading %s: %w", label, err)
		}
		stats.Records++
		switch {
		case rec.Message != nil:
			s := sink(rec.Message.PeerIP, rec.Message.PeerAS)
			if err := bgp.ParseUpdateInto(rec.Message.Data, rec.Message.AS4, &u); err != nil {
				stats.Skipped++
				continue
			}
			stats.NoASPath += bgpd.PrefixUpdates(&u, rec.Header.Timestamp, s, &scratch)
		case rec.PeerIndex != nil:
			peers = rec.PeerIndex.Peers
		case rec.RIB != nil:
			for _, e := range rec.RIB.Entries {
				if e.PeerIndex < 0 || e.PeerIndex >= len(peers) {
					stats.Skipped++
					continue
				}
				if !e.Attrs.HasASPath {
					stats.NoASPath++
					continue
				}
				p := peers[e.PeerIndex]
				scratch = bgp.FlattenPath(scratch, e.Attrs.ASPath)
				sink(p.IP, p.AS).Update(rec.Header.Timestamp, rec.RIB.Prefix, scratch)
			}
		}
		// State changes carry no routes: the live RIB tracks announced
		// state only.
	}
}

// IngestMRT replays an archive through the daemon's pipeline (see
// readMRT) and books its records and path-less announcements; use
// WaitQuiesce to wait for the pipeline to absorb it.
func (d *Daemon) IngestMRT(r io.Reader, label string) (*MRTStats, error) {
	stats, err := readMRT(d, r, label)
	d.met.mrtRecords.Add(uint64(stats.Records))
	d.met.droppedNoASPath.Add(uint64(stats.NoASPath))
	return stats, err
}

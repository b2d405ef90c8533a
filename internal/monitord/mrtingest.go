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

// ingester is the part of Front an archive reader drives.
type ingester interface {
	RegisterSource(name string, peer bgp.ASN) int
	Ingest(session int, t time.Time, prefix netip.Prefix, path []bgp.ASN) error
}

// ingestSink feeds one archived peer's prefix-level updates into a front
// under its source session, counting what was enqueued. Archive
// timestamps are months old, so they go in through Ingest — which takes
// its own receive stamp for the latency histograms — never through a
// session sink, whose stamp is the latency origin. Ingest queues the path
// it is given and ReadMRT only lends one, so Update copies it.
type ingestSink struct {
	in      ingester
	session int
	stats   *MRTStats
}

func (s ingestSink) Update(t time.Time, prefix netip.Prefix, path []bgp.ASN) {
	if err := s.in.Ingest(s.session, t, prefix, slices.Clone(path)); err == nil {
		s.stats.Updates++
	}
}

func (ingestSink) Flush(time.Time, int) {} // archives have no read batches

// ReadMRT replays an MRT archive into in — a daemon, or a front that
// filters for one — as if each peer in the archive were a connected
// session. One source session is registered per distinct peer address
// (named after label), every BGP4MP update is enqueued with its record
// timestamp, and every TABLE_DUMP_V2 RIB entry becomes an announcement
// at the dump's timestamp — the monitor observes both like live
// updates, so a poisoned table alarms too. Unsupported records are
// skipped, and announcements without an AS_PATH are dropped and
// counted, as on a live session.
//
// The call returns once everything is enqueued; the stats are valid even
// alongside an error. IngestMRT and the fleet's twin book the records and
// the path-less announcements on their counters.
func ReadMRT(in ingester, r io.Reader, label string) (*MRTStats, error) {
	stats := &MRTStats{}
	sessions := make(map[netip.Addr]int) // peer address -> source session
	sink := func(ip netip.Addr, as bgp.ASN) ingestSink {
		si, ok := sessions[ip]
		if !ok {
			si = in.RegisterSource(fmt.Sprintf("%s peer %v", label, ip), as)
			sessions[ip] = si
			stats.Sessions++
		}
		return ingestSink{in, si, stats}
	}
	var peers []mrt.Peer  // the peer table later RIB entries index into
	var scratch []bgp.ASN // each record's flattened path, lent to the sink
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
			u, err := rec.Message.Update()
			if err != nil {
				stats.Skipped++
				continue
			}
			stats.NoASPath += bgpd.PrefixUpdates(u, rec.Header.Timestamp, s, &scratch)
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
// ReadMRT); use WaitQuiesce to wait for the pipeline to absorb it.
func (d *Daemon) IngestMRT(r io.Reader, label string) (*MRTStats, error) {
	stats, err := ReadMRT(d, r, label)
	d.CountMRTRecords(stats.Records)
	d.met.droppedNoASPath.Add(uint64(stats.NoASPath))
	return stats, err
}

// CountMRTRecords adds n archive records to monitord_mrt_records_total,
// for a front that reads archives into the daemon (see ReadMRT).
func (d *Daemon) CountMRTRecords(n int) { d.met.mrtRecords.Add(uint64(n)) }

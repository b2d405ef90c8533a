package monitord

import (
	"errors"
	"fmt"
	"io"
	"net/netip"
	"os"
	"time"

	"quicksand/internal/bgp"
	"quicksand/internal/bgpd"
	"quicksand/internal/mrt"
)

// ingestSink feeds one archived peer's prefix-level updates into the
// pipeline under its source session, counting what was enqueued.
type ingestSink struct {
	d       *Daemon
	session int
	stats   *MRTStats
}

func (s ingestSink) Update(t time.Time, prefix netip.Prefix, path []bgp.ASN) {
	if err := s.d.Ingest(s.session, t, prefix, path); err == nil {
		s.stats.Updates++
	}
}

func (ingestSink) Flush(time.Time, int) {} // archives have no read batches

// MRTStats reports what one archive ingest fed into the pipeline.
type MRTStats struct {
	Records  int // MRT records decoded (messages + state changes)
	Updates  int // prefix-level updates enqueued
	Sessions int // distinct peers seen (new source sessions registered)
	Skipped  int // unsupported or undecodable records skipped
}

// IngestMRT replays a BGP4MP update archive through the live pipeline,
// as if each peer in the archive were a connected session: one source
// session is registered per distinct peer address, and every update is
// enqueued with its record timestamp. Unsupported records are skipped.
// The label names the archive in the session registry.
//
// The call returns once everything is enqueued; use WaitQuiesce to wait
// for the pipeline to absorb it.
func (d *Daemon) IngestMRT(r io.Reader, label string) (*MRTStats, error) {
	stats := &MRTStats{}
	rd := mrt.NewReader(r)
	peerSessions := make(map[netip.Addr]int)
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
		d.met.mrtRecords.Add(1)
		stats.Records++
		switch {
		case rec.Message != nil:
			si, ok := peerSessions[rec.Message.PeerIP]
			if !ok {
				si = d.RegisterSource(fmt.Sprintf("%s peer %v", label, rec.Message.PeerIP), rec.Message.PeerAS)
				peerSessions[rec.Message.PeerIP] = si
				stats.Sessions++
			}
			u, err := rec.Message.Update()
			if err != nil {
				stats.Skipped++
				continue
			}
			dropped := bgpd.PrefixUpdates(u, rec.Header.Timestamp, ingestSink{d, si, stats})
			d.met.droppedNoASPath.Add(uint64(dropped))
		case rec.StateChange != nil:
			// Session resets carry no routes; they are visible in the
			// archive for completeness but the live RIB only tracks
			// announced state.
		}
	}
}

// IngestMRTFile opens and replays one archive file.
func (d *Daemon) IngestMRTFile(path string) (*MRTStats, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return d.IngestMRT(f, path)
}

// IngestRIBSnapshot seeds the live RIB from a TABLE_DUMP_V2 snapshot:
// every RIB entry becomes an announcement on the corresponding peer's
// source session at the record timestamp. The monitor observes these
// like any update (a poisoned snapshot should alarm too).
func (d *Daemon) IngestRIBSnapshot(r io.Reader, label string) (*MRTStats, error) {
	stats := &MRTStats{}
	rd := mrt.NewReader(r)
	var peers []mrt.Peer
	peerSessions := make(map[int]int) // peer index -> session id
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
		d.met.mrtRecords.Add(1)
		stats.Records++
		switch {
		case rec.PeerIndex != nil:
			peers = rec.PeerIndex.Peers
		case rec.RIB != nil:
			for _, e := range rec.RIB.Entries {
				if e.PeerIndex < 0 || e.PeerIndex >= len(peers) {
					stats.Skipped++
					continue
				}
				if !e.Attrs.HasASPath {
					continue
				}
				si, ok := peerSessions[e.PeerIndex]
				if !ok {
					p := peers[e.PeerIndex]
					si = d.RegisterSource(fmt.Sprintf("%s peer %v", label, p.IP), p.AS)
					peerSessions[e.PeerIndex] = si
					stats.Sessions++
				}
				path := bgpd.FlattenPath(e.Attrs.ASPath)
				if err := d.Ingest(si, rec.Header.Timestamp, rec.RIB.Prefix, path); err == nil {
					stats.Updates++
				}
			}
		}
	}
}

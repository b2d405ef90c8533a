package monitord

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"sort"
	"time"

	"quicksand/internal/bgp"
)

// RIB snapshots let a restarted daemon resume from its previous routing
// state instead of re-ingesting MRT archives — the persistence half of
// running monitord at fleet scale. The format is a versioned binary
// dump of the live RIB plus the session registry rows its routes
// reference:
//
//	magic "QSRIB", version u8 (currently 1)
//	u32 session count, then per session (ascending id):
//	    u32 id, u32 peerAS, u16+bytes remote, u16+bytes source
//	u32 prefix count, then per prefix:
//	    4-byte IPv4 address, u8 prefix bits, u16 route count,
//	    then per route: u32 session id, i64 updated (UnixNano),
//	    u16 path length, u32 ASN per hop
//
// A zero-length path round-trips as an announcement with an empty
// AS_PATH, never as a withdrawal (withdrawn routes are simply absent).
// Restoring replays every route through the normal ingest pipeline, so
// the streaming monitor observes the restored table: a snapshot taken
// during an active hijack re-raises its alerts on restart instead of
// silently trusting the poisoned state.

const (
	snapshotMagic   = "QSRIB"
	snapshotVersion = 1
)

// ErrSnapshotFormat reports a snapshot that is not a QSRIB dump or has
// an unsupported version.
var ErrSnapshotFormat = errors.New("monitord: bad snapshot format")

// SnapshotStats reports what a snapshot save or restore moved.
type SnapshotStats struct {
	Sessions int // session registry rows written / restored
	Prefixes int // prefixes with at least one live route
	Routes   int // (session, prefix) routes written / replayed
}

// SaveSnapshot writes the live RIB and the session registry to w in the
// versioned binary snapshot format. It is safe to call on a running
// daemon (it reads shard-consistent copies) and after Shutdown (the
// drained RIB stays readable), which is when serve persists it.
func (d *Daemon) SaveSnapshot(w io.Writer) (*SnapshotStats, error) {
	stats := &SnapshotStats{}
	bw := bufio.NewWriter(w)
	bw.WriteString(snapshotMagic)
	bw.WriteByte(snapshotVersion)

	rows := d.srv.Peers() // id order, so the dump and the restored id mapping are deterministic
	writeU32 := func(v uint32) {
		var b [4]byte
		binary.BigEndian.PutUint32(b[:], v)
		bw.Write(b[:])
	}
	writeU16 := func(v uint16) {
		var b [2]byte
		binary.BigEndian.PutUint16(b[:], v)
		bw.Write(b[:])
	}
	writeStr := func(s string) error {
		if len(s) > 0xFFFF {
			return fmt.Errorf("monitord: snapshot string %q too long", s[:32])
		}
		writeU16(uint16(len(s)))
		bw.WriteString(s)
		return nil
	}
	writeU32(uint32(len(rows)))
	for _, r := range rows {
		writeU32(uint32(r.ID))
		writeU32(uint32(r.PeerAS))
		if err := writeStr(r.Remote); err != nil {
			return stats, err
		}
		if err := writeStr(r.Source); err != nil {
			return stats, err
		}
	}
	stats.Sessions = len(rows)

	// Collect entries first: the count prefixes the records.
	var entries []*RIBEntry
	d.rib.Walk(func(e *RIBEntry) bool {
		entries = append(entries, e)
		return true
	})
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i].Prefix, entries[j].Prefix
		if a.Addr() != b.Addr() {
			return a.Addr().Less(b.Addr())
		}
		return a.Bits() < b.Bits()
	})
	writeU32(uint32(len(entries)))
	for _, e := range entries {
		addr := e.Prefix.Masked().Addr().As4()
		bw.Write(addr[:])
		bw.WriteByte(byte(e.Prefix.Bits()))
		if len(e.Routes) > 0xFFFF {
			return stats, fmt.Errorf("monitord: %v has %d routes, snapshot limit 65535", e.Prefix, len(e.Routes))
		}
		writeU16(uint16(len(e.Routes)))
		for _, rt := range e.Routes {
			if len(rt.Path) > 0xFFFF {
				return stats, fmt.Errorf("monitord: %v path length %d exceeds snapshot limit", e.Prefix, len(rt.Path))
			}
			writeU32(uint32(rt.Session))
			var ts [8]byte
			binary.BigEndian.PutUint64(ts[:], uint64(rt.Updated.UnixNano()))
			bw.Write(ts[:])
			writeU16(uint16(len(rt.Path)))
			for _, asn := range rt.Path {
				writeU32(uint32(asn))
			}
			stats.Routes++
		}
		stats.Prefixes++
	}
	return stats, bw.Flush()
}

// SaveSnapshotFile atomically writes a snapshot to path (temp file in
// the same directory, then rename).
func (d *Daemon) SaveSnapshotFile(path string) (*SnapshotStats, error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".qsrib-*")
	if err != nil {
		return nil, err
	}
	stats, err := d.SaveSnapshot(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(f.Name())
		return stats, err
	}
	if err := os.Rename(f.Name(), path); err != nil {
		os.Remove(f.Name())
		return stats, err
	}
	return stats, nil
}

// LoadSnapshot restores a snapshot through the ingest pipeline: each
// persisted session registers as a "snapshot" source (ids are remapped
// in ascending saved order, so a fresh daemon reproduces the saved ids)
// and every route replays as an announcement at its saved timestamp.
// The call returns once everything is enqueued; use WaitQuiesce before
// reading the RIB.
func (d *Daemon) LoadSnapshot(r io.Reader) (*SnapshotStats, error) {
	stats := &SnapshotStats{}
	br := bufio.NewReader(r)

	head := make([]byte, len(snapshotMagic)+1)
	if _, err := io.ReadFull(br, head); err != nil {
		return stats, fmt.Errorf("%w: %v", ErrSnapshotFormat, err)
	}
	if string(head[:len(snapshotMagic)]) != snapshotMagic {
		return stats, fmt.Errorf("%w: bad magic", ErrSnapshotFormat)
	}
	if head[len(snapshotMagic)] != snapshotVersion {
		return stats, fmt.Errorf("%w: unsupported version %d", ErrSnapshotFormat, head[len(snapshotMagic)])
	}

	readU32 := func() (uint32, error) {
		var b [4]byte
		if _, err := io.ReadFull(br, b[:]); err != nil {
			return 0, err
		}
		return binary.BigEndian.Uint32(b[:]), nil
	}
	readU16 := func() (uint16, error) {
		var b [2]byte
		if _, err := io.ReadFull(br, b[:]); err != nil {
			return 0, err
		}
		return binary.BigEndian.Uint16(b[:]), nil
	}
	readStr := func() (string, error) {
		n, err := readU16()
		if err != nil {
			return "", err
		}
		b := make([]byte, n)
		if _, err := io.ReadFull(br, b); err != nil {
			return "", err
		}
		return string(b), nil
	}

	nSessions, err := readU32()
	if err != nil {
		return stats, fmt.Errorf("%w: session count: %v", ErrSnapshotFormat, err)
	}
	idMap := make(map[int]int, nSessions)
	for i := uint32(0); i < nSessions; i++ {
		savedID, err := readU32()
		if err != nil {
			return stats, fmt.Errorf("%w: session %d: %v", ErrSnapshotFormat, i, err)
		}
		peerAS, err := readU32()
		if err != nil {
			return stats, fmt.Errorf("%w: session %d: %v", ErrSnapshotFormat, i, err)
		}
		remote, err := readStr()
		if err != nil {
			return stats, fmt.Errorf("%w: session %d remote: %v", ErrSnapshotFormat, i, err)
		}
		if _, err := readStr(); err != nil { // original source, informational
			return stats, fmt.Errorf("%w: session %d source: %v", ErrSnapshotFormat, i, err)
		}
		idMap[int(savedID)] = d.srv.Register(remote, bgp.ASN(peerAS), "snapshot").ID
		stats.Sessions++
	}

	nPrefixes, err := readU32()
	if err != nil {
		return stats, fmt.Errorf("%w: prefix count: %v", ErrSnapshotFormat, err)
	}
	for i := uint32(0); i < nPrefixes; i++ {
		var addr [4]byte
		if _, err := io.ReadFull(br, addr[:]); err != nil {
			return stats, fmt.Errorf("%w: prefix %d: %v", ErrSnapshotFormat, i, err)
		}
		bits, err := br.ReadByte()
		if err != nil {
			return stats, fmt.Errorf("%w: prefix %d bits: %v", ErrSnapshotFormat, i, err)
		}
		if bits > 32 {
			return stats, fmt.Errorf("%w: prefix %d: %d bits", ErrSnapshotFormat, i, bits)
		}
		prefix := netip.PrefixFrom(netip.AddrFrom4(addr), int(bits))
		nRoutes, err := readU16()
		if err != nil {
			return stats, fmt.Errorf("%w: prefix %d routes: %v", ErrSnapshotFormat, i, err)
		}
		for j := uint16(0); j < nRoutes; j++ {
			savedID, err := readU32()
			if err != nil {
				return stats, fmt.Errorf("%w: %v route %d: %v", ErrSnapshotFormat, prefix, j, err)
			}
			var ts [8]byte
			if _, err := io.ReadFull(br, ts[:]); err != nil {
				return stats, fmt.Errorf("%w: %v route %d: %v", ErrSnapshotFormat, prefix, j, err)
			}
			pathLen, err := readU16()
			if err != nil {
				return stats, fmt.Errorf("%w: %v route %d: %v", ErrSnapshotFormat, prefix, j, err)
			}
			path := make([]bgp.ASN, 0, pathLen)
			for k := uint16(0); k < pathLen; k++ {
				asn, err := readU32()
				if err != nil {
					return stats, fmt.Errorf("%w: %v route %d hop %d: %v", ErrSnapshotFormat, prefix, j, k, err)
				}
				path = append(path, bgp.ASN(asn))
			}
			sid, ok := idMap[int(savedID)]
			if !ok {
				return stats, fmt.Errorf("%w: %v references unknown session %d", ErrSnapshotFormat, prefix, savedID)
			}
			t := time.Unix(0, int64(binary.BigEndian.Uint64(ts[:])))
			if err := d.Ingest(sid, t, prefix, path); err != nil {
				return stats, err
			}
			stats.Routes++
		}
		stats.Prefixes++
	}
	return stats, nil
}

// LoadSnapshotFile restores a snapshot from path.
func (d *Daemon) LoadSnapshotFile(path string) (*SnapshotStats, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return d.LoadSnapshot(f)
}

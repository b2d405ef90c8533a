// Package mrt implements the MRT export format (RFC 6396) for BGP data:
// BGP4MP update/state-change records as produced by the RIPE RIS
// collectors the paper measured, and TABLE_DUMP_V2 RIB snapshots.
//
// A Writer serialises records to a stream and a Reader iterates them back,
// so synthetic update streams generated by internal/bgpsim can be archived
// to disk in the same container format the paper's pipeline consumed, and
// the analyses can be run directly from MRT files (see cmd/bgpgen).
package mrt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"slices"
	"time"

	"quicksand/internal/bgp"
)

// MRT record types and subtypes (RFC 6396 §4).
const (
	TypeTableDumpV2 = 13
	TypeBGP4MP      = 16

	SubtypeBGP4MPStateChange    = 0
	SubtypeBGP4MPMessage        = 1
	SubtypeBGP4MPMessageAS4     = 4
	SubtypeBGP4MPStateChangeAS4 = 5

	SubtypePeerIndexTable = 1
	SubtypeRIBIPv4Unicast = 2
)

// BGP FSM states as carried in STATE_CHANGE records (RFC 6396 §4.4.1).
const (
	StateIdle        = 1
	StateConnect     = 2
	StateActive      = 3
	StateOpenSent    = 4
	StateOpenConfirm = 5
	StateEstablished = 6
)

// Errors returned by the reader.
var (
	ErrTruncated   = errors.New("mrt: truncated record")
	ErrUnsupported = errors.New("mrt: unsupported record type")
)

// Header is the common MRT record header.
type Header struct {
	Timestamp time.Time
	Type      int
	Subtype   int
	Length    int // payload length, excluding the 12-byte header
}

// BGP4MPMessage is a BGP4MP_MESSAGE or BGP4MP_MESSAGE_AS4 record: one BGP
// message observed on an eBGP session between PeerAS and LocalAS.
type BGP4MPMessage struct {
	PeerAS    bgp.ASN
	LocalAS   bgp.ASN
	Interface uint16
	PeerIP    netip.Addr
	LocalIP   netip.Addr
	// AS4 is set when the record used 4-octet ASN framing (MESSAGE_AS4).
	// An embedded UPDATE's AS_PATH has the same width, as in RIS archives,
	// so Data decodes with bgp.ParseUpdateInto(Data, AS4, u).
	AS4  bool
	Data []byte // raw BGP message, header included
}

// BGP4MPStateChange is a BGP4MP_STATE_CHANGE(_AS4) record: an FSM
// transition on a collector session. Transitions out of Established mark
// session resets whose artificial churn the analyses must discard.
type BGP4MPStateChange struct {
	PeerAS    bgp.ASN
	LocalAS   bgp.ASN
	Interface uint16
	PeerIP    netip.Addr
	LocalIP   netip.Addr
	AS4       bool
	OldState  int
	NewState  int
}

// Peer is one entry of a TABLE_DUMP_V2 PEER_INDEX_TABLE.
type Peer struct {
	BGPID netip.Addr
	IP    netip.Addr
	AS    bgp.ASN
}

// PeerIndexTable is the TABLE_DUMP_V2 PEER_INDEX_TABLE record that RIB
// entry records refer into by index.
type PeerIndexTable struct {
	CollectorBGPID netip.Addr
	ViewName       string
	Peers          []Peer
}

// RIBEntry is one per-peer route of a RIB record.
type RIBEntry struct {
	PeerIndex      int
	OriginatedTime time.Time
	Attrs          bgp.PathAttributes
}

// RIBIPv4Unicast is a TABLE_DUMP_V2 RIB_IPV4_UNICAST record: the routes
// every peer holds for one prefix at dump time.
type RIBIPv4Unicast struct {
	Sequence uint32
	Prefix   netip.Prefix
	Entries  []RIBEntry
}

// Record is one decoded MRT record. Exactly one of the payload fields is
// non-nil, matching Header.Type/Subtype.
type Record struct {
	Header      Header
	Message     *BGP4MPMessage
	StateChange *BGP4MPStateChange
	PeerIndex   *PeerIndexTable
	RIB         *RIBIPv4Unicast
}

// Writer serialises MRT records. Each record, header and payload, is
// built in one buffer the Writer reuses and goes out in one Write.
type Writer struct {
	w   io.Writer
	buf []byte // the record being built
	msg []byte // scratch UPDATE that WriteRIB slices attributes out of
}

// NewWriter returns a Writer emitting to w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// begin starts a record in the reused buffer: its header, with the
// payload length left for write to fill in. The caller appends the
// payload to the returned slice.
func (w *Writer) begin(ts time.Time, typ, subtype int) []byte {
	b := binary.BigEndian.AppendUint32(w.buf[:0], uint32(ts.Unix()))
	b = binary.BigEndian.AppendUint16(b, uint16(typ))
	b = binary.BigEndian.AppendUint16(b, uint16(subtype))
	return append(b, 0, 0, 0, 0)
}

// write sets the length of the record begin started and b holds, keeps
// b's storage for the next record and writes b out.
func (w *Writer) write(b []byte) error {
	binary.BigEndian.PutUint32(b[8:12], uint32(len(b)-12))
	w.buf = b
	_, err := w.w.Write(b)
	return err
}

func appendPeerHeader(dst []byte, peerAS, localAS bgp.ASN, ifindex uint16, peerIP, localIP netip.Addr, as4 bool) ([]byte, error) {
	if !peerIP.Is4() || !localIP.Is4() {
		return nil, fmt.Errorf("mrt: only IPv4 peers supported, got %v/%v", peerIP, localIP)
	}
	if as4 {
		dst = binary.BigEndian.AppendUint32(dst, uint32(peerAS))
		dst = binary.BigEndian.AppendUint32(dst, uint32(localAS))
	} else {
		dst = binary.BigEndian.AppendUint16(dst, uint16(peerAS))
		dst = binary.BigEndian.AppendUint16(dst, uint16(localAS))
	}
	dst = binary.BigEndian.AppendUint16(dst, ifindex)
	dst = binary.BigEndian.AppendUint16(dst, 1) // AFI IPv4
	p4 := peerIP.As4()
	l4 := localIP.As4()
	dst = append(dst, p4[:]...)
	dst = append(dst, l4[:]...)
	return dst, nil
}

// WriteMessage writes a BGP4MP_MESSAGE(_AS4) record at time ts.
func (w *Writer) WriteMessage(ts time.Time, m *BGP4MPMessage) error {
	subtype := SubtypeBGP4MPMessage
	if m.AS4 {
		subtype = SubtypeBGP4MPMessageAS4
	}
	b, err := appendPeerHeader(w.begin(ts, TypeBGP4MP, subtype), m.PeerAS, m.LocalAS, m.Interface, m.PeerIP, m.LocalIP, m.AS4)
	if err != nil {
		return err
	}
	return w.write(append(b, m.Data...))
}

// WriteStateChange writes a BGP4MP_STATE_CHANGE(_AS4) record at time ts.
func (w *Writer) WriteStateChange(ts time.Time, s *BGP4MPStateChange) error {
	subtype := SubtypeBGP4MPStateChange
	if s.AS4 {
		subtype = SubtypeBGP4MPStateChangeAS4
	}
	b, err := appendPeerHeader(w.begin(ts, TypeBGP4MP, subtype), s.PeerAS, s.LocalAS, s.Interface, s.PeerIP, s.LocalIP, s.AS4)
	if err != nil {
		return err
	}
	b = binary.BigEndian.AppendUint16(b, uint16(s.OldState))
	return w.write(binary.BigEndian.AppendUint16(b, uint16(s.NewState)))
}

// WritePeerIndexTable writes a TABLE_DUMP_V2 PEER_INDEX_TABLE record.
// Peers are written as type 0x02 entries (IPv4 address, 4-octet AS).
func (w *Writer) WritePeerIndexTable(ts time.Time, t *PeerIndexTable) error {
	if !t.CollectorBGPID.Is4() {
		return fmt.Errorf("mrt: collector BGP ID %v is not IPv4", t.CollectorBGPID)
	}
	id := t.CollectorBGPID.As4()
	b := append(w.begin(ts, TypeTableDumpV2, SubtypePeerIndexTable), id[:]...)
	b = binary.BigEndian.AppendUint16(b, uint16(len(t.ViewName)))
	b = append(b, t.ViewName...)
	b = binary.BigEndian.AppendUint16(b, uint16(len(t.Peers)))
	for _, p := range t.Peers {
		if !p.BGPID.Is4() || !p.IP.Is4() {
			return fmt.Errorf("mrt: peer %v/%v is not IPv4", p.BGPID, p.IP)
		}
		b = append(b, 0x02) // IPv4 addr + AS4
		id := p.BGPID.As4()
		b = append(b, id[:]...)
		ip := p.IP.As4()
		b = append(b, ip[:]...)
		b = binary.BigEndian.AppendUint32(b, uint32(p.AS))
	}
	return w.write(b)
}

// WriteRIB writes a TABLE_DUMP_V2 RIB_IPV4_UNICAST record. Attributes are
// encoded with 4-octet AS_PATH, as RFC 6396 §4.3.4 requires.
func (w *Writer) WriteRIB(ts time.Time, r *RIBIPv4Unicast) error {
	if !r.Prefix.IsValid() || !r.Prefix.Addr().Is4() {
		return fmt.Errorf("mrt: RIB prefix %v is not IPv4", r.Prefix)
	}
	b := binary.BigEndian.AppendUint32(w.begin(ts, TypeTableDumpV2, SubtypeRIBIPv4Unicast), r.Sequence)
	p := r.Prefix.Masked()
	b = append(b, byte(p.Bits()))
	a4 := p.Addr().As4()
	b = append(b, a4[:(p.Bits()+7)/8]...)
	b = binary.BigEndian.AppendUint16(b, uint16(len(r.Entries)))
	for _, e := range r.Entries {
		// Encode attributes as a scratch UPDATE and slice its
		// attribute block back out; this reuses the one battle-tested
		// attribute encoder.
		u := bgp.Update{Attrs: e.Attrs}
		raw, err := u.AppendMessage(w.msg[:0], true)
		if err != nil {
			return fmt.Errorf("mrt: encoding RIB entry attributes: %w", err)
		}
		w.msg = raw
		// Layout: header(19) wlen(2)=0 alen(2) attrs...
		alen := int(binary.BigEndian.Uint16(raw[bgp.HeaderLen+2 : bgp.HeaderLen+4]))
		attrs := raw[bgp.HeaderLen+4 : bgp.HeaderLen+4+alen]
		b = binary.BigEndian.AppendUint16(b, uint16(e.PeerIndex))
		b = binary.BigEndian.AppendUint32(b, uint32(e.OriginatedTime.Unix()))
		b = binary.BigEndian.AppendUint16(b, uint16(len(attrs)))
		b = append(b, attrs...)
	}
	return w.write(b)
}

// Reader iterates MRT records from a stream. It reads each payload into
// one buffer it reuses; every field of a returned Record is a copy, so a
// Record stays valid after later calls to Next.
type Reader struct {
	r   io.Reader
	hdr [12]byte // the current record's header
	buf []byte   // the current record's payload
	msg []byte   // scratch UPDATE that RIB entries' attributes are parsed from
}

// NewReader returns a Reader consuming from r.
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// readChunk bounds how far the payload buffer grows ahead of the bytes
// actually read.
const readChunk = 64 << 10

// read reads an n-byte payload into the reused buffer. n comes straight
// off the wire, and a 12-byte header claiming a 4 GB payload must fail on
// the missing bytes, not on the allocation, so the buffer grows at most
// readChunk past what has arrived.
func (r *Reader) read(n int) ([]byte, error) {
	buf := r.buf[:0]
	for len(buf) < n {
		k := min(n-len(buf), readChunk)
		buf = slices.Grow(buf, k)
		m, err := io.ReadFull(r.r, buf[len(buf):len(buf)+k])
		buf = buf[:len(buf)+m]
		if err != nil {
			r.buf = buf
			return nil, err
		}
	}
	r.buf = buf
	return buf, nil
}

// Next reads and decodes the next record. It returns io.EOF at a clean end
// of stream and ErrTruncated when the stream ends mid-record. Records of
// unsupported types return a Record carrying only the Header together with
// ErrUnsupported; callers may skip and continue.
func (r *Reader) Next() (*Record, error) {
	hdr := r.hdr[:]
	if _, err := io.ReadFull(r.r, hdr); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: header: %v", ErrTruncated, err)
	}
	rec := &Record{Header: Header{
		Timestamp: time.Unix(int64(binary.BigEndian.Uint32(hdr[0:4])), 0).UTC(),
		Type:      int(binary.BigEndian.Uint16(hdr[4:6])),
		Subtype:   int(binary.BigEndian.Uint16(hdr[6:8])),
		Length:    int(binary.BigEndian.Uint32(hdr[8:12])),
	}}
	payload, err := r.read(rec.Header.Length)
	if err != nil {
		return nil, fmt.Errorf("%w: payload: %v", ErrTruncated, err)
	}
	switch {
	case rec.Header.Type == TypeBGP4MP &&
		(rec.Header.Subtype == SubtypeBGP4MPMessage || rec.Header.Subtype == SubtypeBGP4MPMessageAS4):
		m, err := parseBGP4MPMessage(payload, rec.Header.Subtype == SubtypeBGP4MPMessageAS4)
		if err != nil {
			return nil, err
		}
		rec.Message = m
	case rec.Header.Type == TypeBGP4MP &&
		(rec.Header.Subtype == SubtypeBGP4MPStateChange || rec.Header.Subtype == SubtypeBGP4MPStateChangeAS4):
		s, err := parseBGP4MPStateChange(payload, rec.Header.Subtype == SubtypeBGP4MPStateChangeAS4)
		if err != nil {
			return nil, err
		}
		rec.StateChange = s
	case rec.Header.Type == TypeTableDumpV2 && rec.Header.Subtype == SubtypePeerIndexTable:
		t, err := parsePeerIndexTable(payload)
		if err != nil {
			return nil, err
		}
		rec.PeerIndex = t
	case rec.Header.Type == TypeTableDumpV2 && rec.Header.Subtype == SubtypeRIBIPv4Unicast:
		rib, err := r.parseRIB(payload)
		if err != nil {
			return nil, err
		}
		rec.RIB = rib
	default:
		return rec, fmt.Errorf("%w: type %d subtype %d", ErrUnsupported, rec.Header.Type, rec.Header.Subtype)
	}
	return rec, nil
}

func parsePeerParts(payload []byte, as4 bool) (peerAS, localAS bgp.ASN, ifidx uint16, peerIP, localIP netip.Addr, rest []byte, err error) {
	asLen := 2
	if as4 {
		asLen = 4
	}
	need := 2*asLen + 4 + 8
	if len(payload) < need {
		return 0, 0, 0, netip.Addr{}, netip.Addr{}, nil, fmt.Errorf("%w: BGP4MP peer header", ErrTruncated)
	}
	if as4 {
		peerAS = bgp.ASN(binary.BigEndian.Uint32(payload[0:4]))
		localAS = bgp.ASN(binary.BigEndian.Uint32(payload[4:8]))
	} else {
		peerAS = bgp.ASN(binary.BigEndian.Uint16(payload[0:2]))
		localAS = bgp.ASN(binary.BigEndian.Uint16(payload[2:4]))
	}
	off := 2 * asLen
	ifidx = binary.BigEndian.Uint16(payload[off : off+2])
	afi := binary.BigEndian.Uint16(payload[off+2 : off+4])
	if afi != 1 {
		return 0, 0, 0, netip.Addr{}, netip.Addr{}, nil, fmt.Errorf("mrt: unsupported AFI %d", afi)
	}
	peerIP = netip.AddrFrom4([4]byte(payload[off+4 : off+8]))
	localIP = netip.AddrFrom4([4]byte(payload[off+8 : off+12]))
	return peerAS, localAS, ifidx, peerIP, localIP, payload[off+12:], nil
}

func parseBGP4MPMessage(payload []byte, as4 bool) (*BGP4MPMessage, error) {
	peerAS, localAS, ifidx, peerIP, localIP, rest, err := parsePeerParts(payload, as4)
	if err != nil {
		return nil, err
	}
	return &BGP4MPMessage{
		PeerAS: peerAS, LocalAS: localAS, Interface: ifidx,
		PeerIP: peerIP, LocalIP: localIP, AS4: as4,
		Data: append([]byte(nil), rest...),
	}, nil
}

func parseBGP4MPStateChange(payload []byte, as4 bool) (*BGP4MPStateChange, error) {
	peerAS, localAS, ifidx, peerIP, localIP, rest, err := parsePeerParts(payload, as4)
	if err != nil {
		return nil, err
	}
	if len(rest) < 4 {
		return nil, fmt.Errorf("%w: state change states", ErrTruncated)
	}
	return &BGP4MPStateChange{
		PeerAS: peerAS, LocalAS: localAS, Interface: ifidx,
		PeerIP: peerIP, LocalIP: localIP, AS4: as4,
		OldState: int(binary.BigEndian.Uint16(rest[0:2])),
		NewState: int(binary.BigEndian.Uint16(rest[2:4])),
	}, nil
}

func parsePeerIndexTable(payload []byte) (*PeerIndexTable, error) {
	if len(payload) < 8 {
		return nil, fmt.Errorf("%w: peer index table", ErrTruncated)
	}
	t := &PeerIndexTable{CollectorBGPID: netip.AddrFrom4([4]byte(payload[0:4]))}
	nameLen := int(binary.BigEndian.Uint16(payload[4:6]))
	if len(payload) < 6+nameLen+2 {
		return nil, fmt.Errorf("%w: view name", ErrTruncated)
	}
	t.ViewName = string(payload[6 : 6+nameLen])
	off := 6 + nameLen
	count := int(binary.BigEndian.Uint16(payload[off : off+2]))
	off += 2
	for i := 0; i < count; i++ {
		if len(payload) < off+1 {
			return nil, fmt.Errorf("%w: peer entry %d", ErrTruncated, i)
		}
		ptype := payload[off]
		off++
		if ptype&0x01 != 0 {
			return nil, fmt.Errorf("mrt: IPv6 peer entries unsupported")
		}
		asLen := 2
		if ptype&0x02 != 0 {
			asLen = 4
		}
		need := 4 + 4 + asLen
		if len(payload) < off+need {
			return nil, fmt.Errorf("%w: peer entry %d body", ErrTruncated, i)
		}
		p := Peer{
			BGPID: netip.AddrFrom4([4]byte(payload[off : off+4])),
			IP:    netip.AddrFrom4([4]byte(payload[off+4 : off+8])),
		}
		if asLen == 4 {
			p.AS = bgp.ASN(binary.BigEndian.Uint32(payload[off+8 : off+12]))
		} else {
			p.AS = bgp.ASN(binary.BigEndian.Uint16(payload[off+8 : off+10]))
		}
		t.Peers = append(t.Peers, p)
		off += need
	}
	return t, nil
}

func (r *Reader) parseRIB(payload []byte) (*RIBIPv4Unicast, error) {
	if len(payload) < 5 {
		return nil, fmt.Errorf("%w: RIB record", ErrTruncated)
	}
	rib := &RIBIPv4Unicast{Sequence: binary.BigEndian.Uint32(payload[0:4])}
	bits := int(payload[4])
	if bits > 32 {
		return nil, fmt.Errorf("mrt: RIB prefix length %d", bits)
	}
	nbytes := (bits + 7) / 8
	if len(payload) < 5+nbytes+2 {
		return nil, fmt.Errorf("%w: RIB prefix", ErrTruncated)
	}
	var b [4]byte
	copy(b[:], payload[5:5+nbytes])
	p, err := netip.AddrFrom4(b).Prefix(bits)
	if err != nil {
		return nil, err
	}
	rib.Prefix = p
	off := 5 + nbytes
	count := int(binary.BigEndian.Uint16(payload[off : off+2]))
	off += 2
	for i := 0; i < count; i++ {
		if len(payload) < off+8 {
			return nil, fmt.Errorf("%w: RIB entry %d", ErrTruncated, i)
		}
		e := RIBEntry{
			PeerIndex:      int(binary.BigEndian.Uint16(payload[off : off+2])),
			OriginatedTime: time.Unix(int64(binary.BigEndian.Uint32(payload[off+2:off+6])), 0).UTC(),
		}
		alen := int(binary.BigEndian.Uint16(payload[off+6 : off+8]))
		if len(payload) < off+8+alen {
			return nil, fmt.Errorf("%w: RIB entry %d attributes", ErrTruncated, i)
		}
		// Reuse the UPDATE parser by wrapping the attribute block in a
		// synthetic UPDATE in the reader's scratch buffer; the parsed
		// attributes are copies.
		msg := r.msg[:0]
		for j := 0; j < bgp.MarkerLen; j++ {
			msg = append(msg, 0xFF)
		}
		msg = binary.BigEndian.AppendUint16(msg, uint16(bgp.HeaderLen+4+alen))
		msg = append(msg, bgp.TypeUpdate)
		msg = binary.BigEndian.AppendUint16(msg, 0) // no withdrawals
		msg = binary.BigEndian.AppendUint16(msg, uint16(alen))
		msg = append(msg, payload[off+8:off+8+alen]...)
		r.msg = msg
		u, err := bgp.ParseUpdate(msg, true)
		if err != nil {
			return nil, fmt.Errorf("mrt: RIB entry %d attributes: %w", i, err)
		}
		e.Attrs = u.Attrs
		rib.Entries = append(rib.Entries, e)
		off += 8 + alen
	}
	return rib, nil
}

// Package packet encodes and decodes IPv4 and TCP headers with real
// Internet checksums.
//
// The asymmetric traffic-analysis experiment (paper §3.3/§4) works by
// inspecting TCP headers on the wire — sequence and acknowledgment
// numbers — to count bytes sent and bytes acknowledged at each end of a
// Tor circuit. The traffic simulator (internal/tcpsim) captures every
// simulated segment through this package — AppendTCPHeaders writes the
// snapped bytes without building the payload — and the analysis parses
// the raw bytes back, exactly as the paper's tcpdump-based pipeline did.
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
)

// TCP flag bits.
const (
	FlagFIN = 1 << iota
	FlagSYN
	FlagRST
	FlagPSH
	FlagACK
	FlagURG
)

// Errors returned by the parsers.
var (
	ErrTruncated   = errors.New("packet: truncated")
	ErrBadVersion  = errors.New("packet: not IPv4")
	ErrBadChecksum = errors.New("packet: checksum mismatch")
	ErrBadLength   = errors.New("packet: inconsistent length fields")
)

// IPv4Header is an IPv4 header. Marshal writes it option-less; the
// parsers accept options and remember the header length they read.
type IPv4Header struct {
	TOS      uint8
	TotalLen uint16 // filled by Marshal when zero
	ID       uint16
	DontFrag bool
	TTL      uint8
	Protocol uint8
	Src      netip.Addr
	Dst      netip.Addr

	ihl int // header bytes read by a parser; 0 = option-less
}

// ProtoTCP is the IPv4 protocol number for TCP.
const ProtoTCP = 6

// ipv4HeaderLen is the length of an option-less IPv4 header.
const ipv4HeaderLen = 20

// tcpHeaderLen is the length of an option-less TCP header.
const tcpHeaderLen = 20

// HeadersLen is the length of the option-less IPv4 and TCP headers that
// open every packet AppendTCPHeaders writes.
const HeadersLen = ipv4HeaderLen + tcpHeaderLen

// checksum computes the Internet checksum (RFC 1071) over data.
func checksum(sum uint32, data []byte) uint32 {
	for i := 0; i+1 < len(data); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(data[i:]))
	}
	if len(data)%2 == 1 {
		sum += uint32(data[len(data)-1]) << 8
	}
	return sum
}

func foldChecksum(sum uint32) uint16 {
	for sum>>16 != 0 {
		sum = sum&0xFFFF + sum>>16
	}
	return ^uint16(sum)
}

// put writes the option-less header into b[:20], with TotalLen totalLen
// and the header checksum. h's addresses must be IPv4.
func (h *IPv4Header) put(b []byte, totalLen int) {
	b = b[:ipv4HeaderLen]
	b[0] = 4<<4 | ipv4HeaderLen/4
	b[1] = h.TOS
	binary.BigEndian.PutUint16(b[2:], uint16(totalLen))
	binary.BigEndian.PutUint16(b[4:], h.ID)
	b[6] = 0
	if h.DontFrag {
		b[6] = 0x40
	}
	b[7] = 0
	b[8] = h.TTL
	b[9] = h.Protocol
	b[10], b[11] = 0, 0
	src := h.Src.As4()
	dst := h.Dst.As4()
	copy(b[12:16], src[:])
	copy(b[16:20], dst[:])
	binary.BigEndian.PutUint16(b[10:], foldChecksum(checksum(0, b)))
}

// ParseIPv4 decodes an IPv4 packet, verifying the header checksum, and
// returns the header together with the payload slice (aliasing data).
func ParseIPv4(data []byte) (*IPv4Header, []byte, error) {
	if len(data) < ipv4HeaderLen {
		return nil, nil, fmt.Errorf("%w: %d bytes of IPv4 header", ErrTruncated, len(data))
	}
	if data[0]>>4 != 4 {
		return nil, nil, fmt.Errorf("%w: version %d", ErrBadVersion, data[0]>>4)
	}
	ihl := int(data[0]&0x0F) * 4
	if ihl < ipv4HeaderLen || len(data) < ihl {
		return nil, nil, fmt.Errorf("%w: IHL %d", ErrBadLength, ihl)
	}
	totalLen := int(binary.BigEndian.Uint16(data[2:]))
	if totalLen < ihl || totalLen > len(data) {
		return nil, nil, fmt.Errorf("%w: total length %d of %d", ErrBadLength, totalLen, len(data))
	}
	if foldChecksum(checksum(0, data[:ihl])) != 0 {
		return nil, nil, fmt.Errorf("%w: IPv4 header", ErrBadChecksum)
	}
	h := &IPv4Header{
		TOS:      data[1],
		TotalLen: uint16(totalLen),
		ID:       binary.BigEndian.Uint16(data[4:]),
		DontFrag: data[6]&0x40 != 0,
		TTL:      data[8],
		Protocol: data[9],
		Src:      netip.AddrFrom4([4]byte(data[12:16])),
		Dst:      netip.AddrFrom4([4]byte(data[16:20])),
		ihl:      ihl,
	}
	return h, data[ihl:totalLen], nil
}

// TCPHeader is a TCP header. Marshal writes it option-less; the parsers
// accept options and remember the data offset they read.
type TCPHeader struct {
	SrcPort uint16
	DstPort uint16
	Seq     uint32
	Ack     uint32
	Flags   uint8
	Window  uint16
	Urgent  uint16

	off int // header bytes read by a parser; 0 = option-less
}

// HasFlag reports whether flag f is set.
func (h *TCPHeader) HasFlag(f uint8) bool { return h.Flags&f != 0 }

// pseudoHeaderSum folds the TCP pseudo-header into a checksum accumulator.
func pseudoHeaderSum(src, dst netip.Addr, tcpLen int) uint32 {
	s := src.As4()
	d := dst.As4()
	var sum uint32
	sum = checksum(sum, s[:])
	sum = checksum(sum, d[:])
	sum += uint32(ProtoTCP)
	sum += uint32(tcpLen)
	return sum
}

// put writes the option-less header into b[:20], with the checksum of a
// segment carrying n payload bytes whose unfolded RFC 1071 sum is paySum.
// A payload of zeros sums to 0: only its length, in the pseudo-header,
// reaches the checksum. src and dst must be IPv4.
func (h *TCPHeader) put(b []byte, src, dst netip.Addr, n int, paySum uint32) {
	b = b[:tcpHeaderLen]
	binary.BigEndian.PutUint16(b[0:], h.SrcPort)
	binary.BigEndian.PutUint16(b[2:], h.DstPort)
	binary.BigEndian.PutUint32(b[4:], h.Seq)
	binary.BigEndian.PutUint32(b[8:], h.Ack)
	b[12] = tcpHeaderLen / 4 << 4
	b[13] = h.Flags
	binary.BigEndian.PutUint16(b[14:], h.Window)
	b[16], b[17] = 0, 0
	binary.BigEndian.PutUint16(b[18:], h.Urgent)
	sum := pseudoHeaderSum(src, dst, tcpHeaderLen+n) + paySum
	binary.BigEndian.PutUint16(b[16:], foldChecksum(checksum(sum, b)))
}

// ParseTCP decodes a TCP segment, verifying the checksum against the
// pseudo-header for src/dst, and returns the header and payload slice.
func ParseTCP(src, dst netip.Addr, seg []byte) (*TCPHeader, []byte, error) {
	if len(seg) < tcpHeaderLen {
		return nil, nil, fmt.Errorf("%w: %d bytes of TCP header", ErrTruncated, len(seg))
	}
	off := int(seg[12]>>4) * 4
	if off < tcpHeaderLen || off > len(seg) {
		return nil, nil, fmt.Errorf("%w: data offset %d", ErrBadLength, off)
	}
	sum := pseudoHeaderSum(src, dst, len(seg))
	if foldChecksum(checksum(sum, seg)) != 0 {
		return nil, nil, fmt.Errorf("%w: TCP segment", ErrBadChecksum)
	}
	h := &TCPHeader{
		SrcPort: binary.BigEndian.Uint16(seg[0:]),
		DstPort: binary.BigEndian.Uint16(seg[2:]),
		Seq:     binary.BigEndian.Uint32(seg[4:]),
		Ack:     binary.BigEndian.Uint32(seg[8:]),
		Flags:   seg[13],
		Window:  binary.BigEndian.Uint16(seg[14:]),
		Urgent:  binary.BigEndian.Uint16(seg[18:]),
		off:     off,
	}
	return h, seg[off:], nil
}

// AppendTCPHeaders appends to b the first min(snap, HeadersLen+n) bytes of
// the IPv4+TCP packet src→dst carrying tcp and n zero payload bytes — what
// a capture with snap length snap records of it, checksums included —
// without building the packet: the payload's zeros are written only where
// the snap reaches them. snap must be at least HeadersLen.
func AppendTCPHeaders(b []byte, src, dst netip.Addr, tcp *TCPHeader, n, snap int) ([]byte, error) {
	if snap < HeadersLen {
		return nil, fmt.Errorf("packet: snap length %d too small for IPv4+TCP headers", snap)
	}
	if n < 0 {
		return nil, fmt.Errorf("packet: negative payload length %d", n)
	}
	if !src.Is4() || !dst.Is4() {
		return nil, fmt.Errorf("packet: TCP packet needs IPv4 addresses, got %v -> %v", src, dst)
	}
	if HeadersLen+n > 0xFFFF {
		return nil, fmt.Errorf("packet: payload %d bytes too large", n)
	}
	keep := min(snap, HeadersLen+n)
	at := len(b)
	b = append(b, make([]byte, keep)...)
	ip := IPv4Header{TTL: 64, Protocol: ProtoTCP, DontFrag: true, Src: src, Dst: dst}
	ip.put(b[at:], HeadersLen+n)
	tcp.put(b[at+ipv4HeaderLen:], src, dst, n, 0)
	return b, nil
}

// ParseTCPPacketLoose decodes the IPv4 and TCP headers of a possibly
// snaplen-truncated capture, the way tcpdump does when only headers were
// captured: length fields may exceed the captured bytes and checksums are
// not verified (they cannot be, without the full payload). The IPv4
// TotalLen field still reports the original wire length, which is how the
// byte-counting analyses recover transfer volume from header-only
// captures.
func ParseTCPPacketLoose(data []byte) (*IPv4Header, *TCPHeader, error) {
	if len(data) < ipv4HeaderLen {
		return nil, nil, fmt.Errorf("%w: %d bytes of IPv4 header", ErrTruncated, len(data))
	}
	if data[0]>>4 != 4 {
		return nil, nil, fmt.Errorf("%w: version %d", ErrBadVersion, data[0]>>4)
	}
	ihl := int(data[0]&0x0F) * 4
	if ihl < ipv4HeaderLen || len(data) < ihl {
		return nil, nil, fmt.Errorf("%w: IHL %d", ErrBadLength, ihl)
	}
	ip := &IPv4Header{
		TOS:      data[1],
		TotalLen: binary.BigEndian.Uint16(data[2:]),
		ID:       binary.BigEndian.Uint16(data[4:]),
		DontFrag: data[6]&0x40 != 0,
		TTL:      data[8],
		Protocol: data[9],
		Src:      netip.AddrFrom4([4]byte(data[12:16])),
		Dst:      netip.AddrFrom4([4]byte(data[16:20])),
		ihl:      ihl,
	}
	if ip.Protocol != ProtoTCP {
		return nil, nil, fmt.Errorf("packet: protocol %d is not TCP", ip.Protocol)
	}
	seg := data[ihl:]
	if len(seg) < tcpHeaderLen {
		return nil, nil, fmt.Errorf("%w: %d bytes of TCP header", ErrTruncated, len(seg))
	}
	off := int(seg[12]>>4) * 4
	if off < tcpHeaderLen {
		return nil, nil, fmt.Errorf("%w: data offset %d", ErrBadLength, off)
	}
	tcp := &TCPHeader{
		SrcPort: binary.BigEndian.Uint16(seg[0:]),
		DstPort: binary.BigEndian.Uint16(seg[2:]),
		Seq:     binary.BigEndian.Uint32(seg[4:]),
		Ack:     binary.BigEndian.Uint32(seg[8:]),
		Flags:   seg[13],
		Window:  binary.BigEndian.Uint16(seg[14:]),
		Urgent:  binary.BigEndian.Uint16(seg[18:]),
		off:     off,
	}
	return ip, tcp, nil
}

// TCPPayloadLen returns the TCP payload length implied by a packet's
// length fields: TotalLen less the IPv4 and TCP header lengths, options
// included, clamped at 0. It works on snaplen-truncated captures; headers
// not produced by a parser count as option-less.
func TCPPayloadLen(ip *IPv4Header, tcp *TCPHeader) int {
	return max(int(ip.TotalLen)-max(ip.ihl, ipv4HeaderLen)-max(tcp.off, tcpHeaderLen), 0)
}

// ParseTCPPacket decodes a complete IPv4+TCP packet, verifying both
// checksums.
func ParseTCPPacket(data []byte) (*IPv4Header, *TCPHeader, []byte, error) {
	ip, payload, err := ParseIPv4(data)
	if err != nil {
		return nil, nil, nil, err
	}
	if ip.Protocol != ProtoTCP {
		return nil, nil, nil, fmt.Errorf("packet: protocol %d is not TCP", ip.Protocol)
	}
	tcp, tcpPayload, err := ParseTCP(ip.Src, ip.Dst, payload)
	if err != nil {
		return nil, nil, nil, err
	}
	return ip, tcp, tcpPayload, nil
}

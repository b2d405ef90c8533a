package packet

import (
	"encoding/binary"
	"errors"
	"testing"
)

func TestParseTCPPacketLooseFullPacket(t *testing.T) {
	tcp := &TCPHeader{SrcPort: 443, DstPort: 50000, Seq: 77, Ack: 88, Flags: FlagACK}
	raw, err := tcpPacket(tcp, []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	ip, got, err := ParseTCPPacketLoose(raw)
	if err != nil {
		t.Fatal(err)
	}
	if ip.Src != srcIP || ip.Dst != dstIP {
		t.Fatalf("addresses %v -> %v", ip.Src, ip.Dst)
	}
	if got.Seq != 77 || got.Ack != 88 {
		t.Fatalf("tcp = %+v", got)
	}
	if TCPPayloadLen(ip, got) != 5 {
		t.Fatalf("payload len = %d", TCPPayloadLen(ip, got))
	}
}

func TestParseTCPPacketLooseTruncated(t *testing.T) {
	tcp := &TCPHeader{SrcPort: 80, DstPort: 40000, Seq: 1000, Flags: FlagACK}
	raw, err := tcpPacket(tcp, make([]byte, 1400))
	if err != nil {
		t.Fatal(err)
	}
	snap := raw[:64] // tcpdump-style snaplen truncation
	ip, got, err := ParseTCPPacketLoose(snap)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 1000 {
		t.Fatalf("seq = %d", got.Seq)
	}
	// The wire length survives in TotalLen even though the bytes are gone.
	if TCPPayloadLen(ip, got) != 1400 {
		t.Fatalf("payload len = %d, want 1400", TCPPayloadLen(ip, got))
	}
}

func TestParseTCPPacketLooseErrors(t *testing.T) {
	if _, _, err := ParseTCPPacketLoose(make([]byte, 10)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short ip: %v", err)
	}
	tcp := &TCPHeader{Flags: FlagACK}
	raw, _ := tcpPacket(tcp, nil)
	bad := append([]byte(nil), raw...)
	bad[0] = 6 << 4
	if _, _, err := ParseTCPPacketLoose(bad); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("version: %v", err)
	}
	bad = append([]byte(nil), raw...)
	bad[0] = 4<<4 | 3 // IHL 12 < 20
	if _, _, err := ParseTCPPacketLoose(bad); !errors.Is(err, ErrBadLength) {
		t.Fatalf("ihl: %v", err)
	}
	bad = append([]byte(nil), raw...)
	bad[9] = 17 // UDP
	if _, _, err := ParseTCPPacketLoose(bad); err == nil {
		t.Fatal("UDP accepted")
	}
	// IPv4 header present but TCP header cut off entirely.
	if _, _, err := ParseTCPPacketLoose(raw[:25]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short tcp: %v", err)
	}
	bad = append([]byte(nil), raw...)
	bad[ipv4HeaderLen+12] = 3 << 4 // data offset 12 < 20
	if _, _, err := ParseTCPPacketLoose(bad); !errors.Is(err, ErrBadLength) {
		t.Fatalf("data offset: %v", err)
	}
}

// optionedPacket hand-builds the packet srcIP→dstIP a real stack would
// send: ipOpts and tcpOpts after the fixed headers, then n zero payload
// bytes, with both checksums.
func optionedPacket(ipOpts, tcpOpts []byte, tcp *TCPHeader, n int) []byte {
	ihl, off := ipv4HeaderLen+len(ipOpts), tcpHeaderLen+len(tcpOpts)
	b := make([]byte, ihl+off+n)
	b[0] = 4<<4 | byte(ihl/4)
	binary.BigEndian.PutUint16(b[2:], uint16(len(b)))
	b[8], b[9] = 64, ProtoTCP
	s, d := srcIP.As4(), dstIP.As4()
	copy(b[12:], s[:])
	copy(b[16:], d[:])
	copy(b[ipv4HeaderLen:], ipOpts)
	binary.BigEndian.PutUint16(b[10:], foldChecksum(checksum(0, b[:ihl])))
	seg := b[ihl:]
	binary.BigEndian.PutUint16(seg[0:], tcp.SrcPort)
	binary.BigEndian.PutUint16(seg[2:], tcp.DstPort)
	binary.BigEndian.PutUint32(seg[4:], tcp.Seq)
	binary.BigEndian.PutUint32(seg[8:], tcp.Ack)
	seg[12] = byte(off/4) << 4
	seg[13] = tcp.Flags
	binary.BigEndian.PutUint16(seg[14:], tcp.Window)
	copy(seg[tcpHeaderLen:], tcpOpts)
	sum := pseudoHeaderSum(srcIP, dstIP, len(seg))
	binary.BigEndian.PutUint16(seg[16:], foldChecksum(checksum(sum, seg)))
	return b
}

// TestTCPPayloadLenWithOptions: the payload length subtracts the header
// lengths the packet declares, so an optioned pure ACK is not data.
func TestTCPPayloadLenWithOptions(t *testing.T) {
	timestamps := []byte{1, 1, 8, 10, 0, 0, 0, 7, 0, 0, 0, 9} // NOP NOP TS
	routerAlert := []byte{0x94, 4, 0, 0}
	tcp := &TCPHeader{SrcPort: 40000, DstPort: 80, Seq: 5, Ack: 1448, Flags: FlagACK, Window: 512}
	for _, c := range []struct {
		name            string
		ipOpts, tcpOpts []byte
		n               int
	}{
		{"pure ACK with timestamps", nil, timestamps, 0},
		{"data with timestamps", nil, timestamps, 1448},
		{"IPv4 and TCP options", routerAlert, timestamps, 100},
		{"option-less", nil, nil, 7},
	} {
		raw := optionedPacket(c.ipOpts, c.tcpOpts, tcp, c.n)
		if _, _, payload, err := ParseTCPPacket(raw); err != nil || len(payload) != c.n {
			t.Fatalf("%s: strict parse: %d payload bytes, %v", c.name, len(payload), err)
		}
		for _, snap := range []int{len(raw), 64} {
			ip, got, err := ParseTCPPacketLoose(raw[:min(snap, len(raw))])
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if n := TCPPayloadLen(ip, got); n != c.n {
				t.Fatalf("%s, snap %d: payload len = %d, want %d", c.name, snap, n, c.n)
			}
		}
	}
}

func TestTCPPayloadLenClampsNegative(t *testing.T) {
	ip := &IPv4Header{TotalLen: 10}
	if got := TCPPayloadLen(ip, &TCPHeader{}); got != 0 {
		t.Fatalf("payload len = %d, want 0", got)
	}
}

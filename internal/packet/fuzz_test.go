package packet

import (
	"bytes"
	"testing"
)

func FuzzParseTCPPacket(f *testing.F) {
	tcp := &TCPHeader{SrcPort: 443, DstPort: 50000, Seq: 7, Ack: 9, Flags: FlagACK}
	raw, err := tcpPacket(tcp, []byte("payload"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Strict and loose parsers must never panic; strict acceptance
		// implies loose acceptance.
		_, _, _, strictErr := ParseTCPPacket(data)
		_, _, looseErr := ParseTCPPacketLoose(data)
		if strictErr == nil && looseErr != nil {
			t.Fatalf("strict accepted but loose rejected: %v", looseErr)
		}
	})
}

// FuzzHeaderCapture: the header-only writer records exactly the first
// min(snap, HeadersLen+n) bytes of the full packet with n zero payload
// bytes, and a snap covering the packet yields one whose checksums verify.
func FuzzHeaderCapture(f *testing.F) {
	for _, n := range []uint16{0, 1, 2, 1447, 1448, 9000} {
		f.Add(uint16(80), uint16(40000), uint32(1000), uint32(0), uint8(FlagACK), uint16(65535), uint16(0), n, uint16(64))
		f.Add(uint16(9001), uint16(50000), uint32(0xFFFFFFFF), uint32(7), uint8(0x3F), uint16(0), uint16(0xFFFF), n, uint16(1600))
	}
	f.Add(uint16(0), uint16(0), uint32(0), uint32(0), uint8(0), uint16(0), uint16(0), uint16(0), uint16(40))
	f.Fuzz(func(t *testing.T, sport, dport uint16, seq, ack uint32, flags uint8, window, urgent, n, snap uint16) {
		size := int(n) % 9001
		keep := max(HeadersLen, int(snap)%1601)
		tcp := &TCPHeader{SrcPort: sport, DstPort: dport, Seq: seq, Ack: ack, Flags: flags, Window: window, Urgent: urgent}
		full, err := tcpPacket(tcp, make([]byte, size))
		if err != nil {
			t.Fatal(err)
		}
		prefix := []byte{0xAA, 0xBB}
		got, err := AppendTCPHeaders(prefix, srcIP, dstIP, tcp, size, keep)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[:len(prefix)], []byte{0xAA, 0xBB}) {
			t.Fatalf("prefix overwritten: % x", got[:len(prefix)])
		}
		if want := full[:min(keep, len(full))]; !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("n=%d snap=%d: header-only\n% x\nfull packet\n% x", size, keep, got[len(prefix):], want)
		}
		if keep >= len(full) {
			if _, _, payload, err := ParseTCPPacket(got[len(prefix):]); err != nil || len(payload) != size {
				t.Fatalf("n=%d snap=%d: %d payload bytes, %v", size, keep, len(payload), err)
			}
		}
	})
}

package packet

import (
	"bytes"
	"errors"
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
)

var (
	srcIP = netip.MustParseAddr("192.0.2.10")
	dstIP = netip.MustParseAddr("203.0.113.20")
)

// tcpPacket builds the complete srcIP→dstIP packet carrying tcp and
// payload, with the IPv4 header fields AppendTCPHeaders writes.
func tcpPacket(tcp *TCPHeader, payload []byte) ([]byte, error) {
	seg, err := tcp.Marshal(srcIP, dstIP, payload)
	if err != nil {
		return nil, err
	}
	ip := &IPv4Header{TTL: 64, Protocol: ProtoTCP, DontFrag: true, Src: srcIP, Dst: dstIP}
	return ip.Marshal(seg)
}

func TestIPv4RoundTrip(t *testing.T) {
	h := &IPv4Header{TOS: 0x10, ID: 42, DontFrag: true, TTL: 61, Protocol: ProtoTCP, Src: srcIP, Dst: dstIP}
	payload := []byte("hello world")
	raw, err := h.Marshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	got, gotPayload, err := ParseIPv4(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.TOS != h.TOS || got.ID != h.ID || !got.DontFrag || got.TTL != 61 ||
		got.Protocol != ProtoTCP || got.Src != srcIP || got.Dst != dstIP {
		t.Fatalf("header: %+v", got)
	}
	if !bytes.Equal(gotPayload, payload) {
		t.Fatalf("payload %q", gotPayload)
	}
}

func TestIPv4ChecksumDetectsCorruption(t *testing.T) {
	h := &IPv4Header{TTL: 64, Protocol: ProtoTCP, Src: srcIP, Dst: dstIP}
	raw, err := h.Marshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	raw[12] ^= 0xFF // corrupt source address
	if _, _, err := ParseIPv4(raw); !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("err = %v, want ErrBadChecksum", err)
	}
}

func TestIPv4Errors(t *testing.T) {
	if _, _, err := ParseIPv4(make([]byte, 5)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short: %v", err)
	}
	h := &IPv4Header{TTL: 64, Protocol: ProtoTCP, Src: srcIP, Dst: dstIP}
	raw, _ := h.Marshal(nil)
	bad := append([]byte(nil), raw...)
	bad[0] = 6 << 4
	if _, _, err := ParseIPv4(bad); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("version: %v", err)
	}
	bad = append([]byte(nil), raw...)
	bad[2], bad[3] = 0, 10 // total length < header
	if _, _, err := ParseIPv4(bad); !errors.Is(err, ErrBadLength) {
		t.Fatalf("length: %v", err)
	}
	v6 := netip.MustParseAddr("2001:db8::1")
	if _, err := (&IPv4Header{Src: v6, Dst: dstIP}).Marshal(nil); err == nil {
		t.Fatal("IPv6 source accepted")
	}
}

func TestTCPRoundTrip(t *testing.T) {
	h := &TCPHeader{
		SrcPort: 443, DstPort: 50000,
		Seq: 0xDEADBEEF, Ack: 0x01020304,
		Flags: FlagACK | FlagPSH, Window: 65535,
	}
	payload := bytes.Repeat([]byte{0xAB}, 1400)
	seg, err := h.Marshal(srcIP, dstIP, payload)
	if err != nil {
		t.Fatal(err)
	}
	got, gotPayload, err := ParseTCP(srcIP, dstIP, seg)
	if err != nil {
		t.Fatal(err)
	}
	if got.SrcPort != 443 || got.DstPort != 50000 || got.Seq != 0xDEADBEEF ||
		got.Ack != 0x01020304 || got.Flags != FlagACK|FlagPSH || got.Window != 65535 {
		t.Fatalf("header: %+v", got)
	}
	if !bytes.Equal(gotPayload, payload) {
		t.Fatal("payload mismatch")
	}
	if !got.HasFlag(FlagACK) || got.HasFlag(FlagSYN) {
		t.Fatal("flag accessors wrong")
	}
}

func TestTCPChecksumCoversPseudoHeader(t *testing.T) {
	h := &TCPHeader{SrcPort: 1, DstPort: 2, Flags: FlagACK}
	seg, err := h.Marshal(srcIP, dstIP, []byte("data"))
	if err != nil {
		t.Fatal(err)
	}
	// Valid against the original addresses...
	if _, _, err := ParseTCP(srcIP, dstIP, seg); err != nil {
		t.Fatal(err)
	}
	// ...but not when the pseudo-header changes (spoofed/NATed address).
	other := netip.MustParseAddr("198.51.100.99")
	if _, _, err := ParseTCP(other, dstIP, seg); !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("err = %v, want ErrBadChecksum", err)
	}
}

func TestTCPChecksumDetectsPayloadCorruption(t *testing.T) {
	h := &TCPHeader{SrcPort: 1, DstPort: 2, Flags: FlagACK}
	seg, _ := h.Marshal(srcIP, dstIP, []byte("data!"))
	seg[len(seg)-1] ^= 1
	if _, _, err := ParseTCP(srcIP, dstIP, seg); !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("err = %v", err)
	}
}

func TestTCPErrors(t *testing.T) {
	if _, _, err := ParseTCP(srcIP, dstIP, make([]byte, 10)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short: %v", err)
	}
	h := &TCPHeader{}
	seg, _ := h.Marshal(srcIP, dstIP, nil)
	seg[12] = 3 << 4 // data offset 12 < 20
	if _, _, err := ParseTCP(srcIP, dstIP, seg); !errors.Is(err, ErrBadLength) {
		t.Fatalf("offset: %v", err)
	}
}

func TestTCPPacketRoundTrip(t *testing.T) {
	tcp := &TCPHeader{SrcPort: 80, DstPort: 40000, Seq: 1000, Ack: 2000, Flags: FlagACK}
	payload := []byte("GET / HTTP/1.1\r\n")
	raw, err := tcpPacket(tcp, payload)
	if err != nil {
		t.Fatal(err)
	}
	ip, gotTCP, gotPayload, err := ParseTCPPacket(raw)
	if err != nil {
		t.Fatal(err)
	}
	if ip.Src != srcIP || ip.Dst != dstIP || ip.Protocol != ProtoTCP {
		t.Fatalf("ip: %+v", ip)
	}
	if gotTCP.Seq != 1000 || gotTCP.Ack != 2000 {
		t.Fatalf("tcp: %+v", gotTCP)
	}
	if !bytes.Equal(gotPayload, payload) {
		t.Fatal("payload mismatch")
	}
}

func TestParseTCPPacketRejectsNonTCP(t *testing.T) {
	ip := &IPv4Header{TTL: 64, Protocol: 17, Src: srcIP, Dst: dstIP} // UDP
	raw, err := ip.Marshal([]byte{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := ParseTCPPacket(raw); err == nil {
		t.Fatal("UDP packet accepted as TCP")
	}
}

// Property: Marshal/Parse round-trips arbitrary header fields and
// payloads, and the checksums always verify.
func TestTCPPacketRoundTripQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	f := func(srcPort, dstPort uint16, seq, ack uint32, flags uint8, n uint16) bool {
		payload := make([]byte, int(n)%1400)
		rng.Read(payload)
		tcp := &TCPHeader{SrcPort: srcPort, DstPort: dstPort, Seq: seq, Ack: ack,
			Flags: flags & 0x3F, Window: 8192}
		raw, err := tcpPacket(tcp, payload)
		if err != nil {
			return false
		}
		_, got, gotPayload, err := ParseTCPPacket(raw)
		if err != nil {
			return false
		}
		return got.SrcPort == srcPort && got.DstPort == dstPort &&
			got.Seq == seq && got.Ack == ack && got.Flags == flags&0x3F &&
			bytes.Equal(gotPayload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: single-bit corruption anywhere in the packet is detected by
// one of the two checksums.
func TestBitFlipDetection(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	tcp := &TCPHeader{SrcPort: 443, DstPort: 50000, Seq: 7, Ack: 9, Flags: FlagACK}
	raw, err := tcpPacket(tcp, []byte("payload bytes here"))
	if err != nil {
		t.Fatal(err)
	}
	detected := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		mut := append([]byte(nil), raw...)
		bit := rng.Intn(len(mut) * 8)
		mut[bit/8] ^= 1 << (bit % 8)
		if _, _, _, err := ParseTCPPacket(mut); err != nil {
			detected++
		}
	}
	// Internet checksums have known undetectable classes under multi-bit
	// flips, but every single-bit flip changes the sum.
	if detected != trials {
		t.Fatalf("only %d/%d single-bit flips detected", detected, trials)
	}
}

func BenchmarkTCPPacketParse(b *testing.B) {
	tcp := &TCPHeader{SrcPort: 443, DstPort: 50000, Seq: 7, Ack: 9, Flags: FlagACK}
	raw, _ := tcpPacket(tcp, bytes.Repeat([]byte{1}, 1400))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := ParseTCPPacket(raw); err != nil {
			b.Fatal(err)
		}
	}
}

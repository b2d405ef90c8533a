package tcpsim

import (
	"fmt"
	"io"

	"quicksand/internal/packet"
	"quicksand/internal/pcap"
)

// WritePcap saves one capture as a classic pcap file (LINKTYPE_RAW, the
// records' snap length preserved), readable by tcpdump and wireshark. The
// original wire length is recovered from each packet's IPv4 TotalLen so
// the file's per-record OrigLen is faithful even for truncated captures.
func WritePcap(w io.Writer, recs []Record, snapLen int) error {
	if snapLen <= 0 {
		snapLen = 64
	}
	pw, err := pcap.NewWriter(w, pcap.LinkTypeRaw, snapLen)
	if err != nil {
		return err
	}
	for i, r := range recs {
		origLen := len(r.Data)
		if ip, _, err := packet.ParseTCPPacketLoose(r.Data); err == nil {
			origLen = int(ip.TotalLen)
		}
		if err := pw.WritePacket(r.Time, r.Data, origLen); err != nil {
			return fmt.Errorf("tcpsim: pcap record %d: %w", i, err)
		}
	}
	return nil
}

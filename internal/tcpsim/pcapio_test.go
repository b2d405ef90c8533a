package tcpsim

import (
	"bytes"
	"testing"

	"quicksand/internal/pcap"
)

func TestPcapRoundTrip(t *testing.T) {
	cfg := smallConfig()
	cfg.FileSize = 256 << 10
	tr := mustRun(t, cfg)

	var buf bytes.Buffer
	if err := WritePcap(&buf, tr.ServerToExit, cfg.SnapLen); err != nil {
		t.Fatal(err)
	}
	pkts, linkType, err := pcap.ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if linkType != pcap.LinkTypeRaw {
		t.Fatalf("link type %d, want %d (raw IP)", linkType, pcap.LinkTypeRaw)
	}
	got := make([]Record, len(pkts))
	for i, p := range pkts {
		got[i] = Record{Time: p.Time, Data: p.Data}
	}
	if len(got) != len(tr.ServerToExit) {
		t.Fatalf("records = %d, want %d", len(got), len(tr.ServerToExit))
	}
	for i := range got {
		if !bytes.Equal(got[i].Data, tr.ServerToExit[i].Data) {
			t.Fatalf("record %d data mismatch", i)
		}
		// pcap keeps microsecond resolution; our timestamps are at
		// nanosecond granularity, so compare at µs.
		a := got[i].Time.UnixMicro()
		b := tr.ServerToExit[i].Time.UnixMicro()
		if a != b {
			t.Fatalf("record %d time %d != %d", i, a, b)
		}
	}
	// Byte counting from the pcap-loaded records matches the original:
	// the analyses can run from files on disk.
	orig := sumDataBytes(t, tr.ServerToExit)
	loaded := sumDataBytes(t, got)
	if orig != loaded {
		t.Fatalf("byte counts differ: %d vs %d", orig, loaded)
	}
}

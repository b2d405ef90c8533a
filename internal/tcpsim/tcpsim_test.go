package tcpsim

import (
	"net/netip"
	"testing"
	"time"

	"quicksand/internal/packet"
)

// smallConfig is a fast 2 MB transfer for unit tests.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.FileSize = 2 << 20
	return cfg
}

func mustRun(t testing.TB, cfg Config) *Traces {
	t.Helper()
	tr, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// sumDataBytes adds up TCP payload lengths from header-only captures.
func sumDataBytes(t *testing.T, recs []Record) int {
	t.Helper()
	total := 0
	for _, r := range recs {
		ip, tcp, err := packet.ParseTCPPacketLoose(r.Data)
		if err != nil {
			t.Fatal(err)
		}
		total += packet.TCPPayloadLen(ip, tcp)
	}
	return total
}

// maxAck returns the highest cumulative acknowledgment in a capture.
func maxAck(t *testing.T, recs []Record) uint32 {
	t.Helper()
	var m uint32
	for _, r := range recs {
		_, tcp, err := packet.ParseTCPPacketLoose(r.Data)
		if err != nil {
			t.Fatal(err)
		}
		if tcp.Ack > m {
			m = tcp.Ack
		}
	}
	return m
}

func TestValidation(t *testing.T) {
	for i, mutate := range []func(*Config){
		func(c *Config) { c.FileSize = 0 },
		func(c *Config) { c.MSS = 50 },
		func(c *Config) { c.BottleneckBps = 0 },
		func(c *Config) { c.RTTServerExit = 0 },
		func(c *Config) { c.LossProb = 1 },
		func(c *Config) { c.SnapLen = 20 },
		func(c *Config) { c.Client = netip.Addr{} },
	} {
		cfg := smallConfig()
		mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Fatalf("case %d: invalid config accepted", i)
		}
	}
}

func TestTransferCompletes(t *testing.T) {
	cfg := smallConfig()
	tr := mustRun(t, cfg)
	// All file bytes appear as unique data on the server->exit segment
	// (retransmissions may add more).
	data := sumDataBytes(t, tr.ServerToExit)
	if data < cfg.FileSize {
		t.Fatalf("server sent %d bytes, file is %d", data, cfg.FileSize)
	}
	// The exit acknowledged the whole file.
	if got := maxAck(t, tr.ExitToServer); got != uint32(cfg.FileSize) {
		t.Fatalf("final server-side ack = %d, want %d", got, cfg.FileSize)
	}
	if tr.Finished.Before(cfg.Start) {
		t.Fatal("Finished before Start")
	}
}

func TestCellOverheadOnClientSide(t *testing.T) {
	cfg := smallConfig()
	tr := mustRun(t, cfg)
	clientBytes := sumDataBytes(t, tr.GuardToClient)
	// The cell stream should exceed the raw file size by the cell
	// framing overhead (~2.8%) but not by much more.
	lo := cfg.FileSize
	hi := cfg.FileSize * 108 / 100
	if clientBytes < lo || clientBytes > hi {
		t.Fatalf("guard->client bytes = %d, want within [%d, %d]", clientBytes, lo, hi)
	}
	// And the client acked the full cell stream.
	if got := int(maxAck(t, tr.ClientToGuard)); got < lo || got > hi {
		t.Fatalf("client ack = %d, want within [%d, %d]", got, lo, hi)
	}
}

func TestTimestampsOrderedAndPlausible(t *testing.T) {
	cfg := smallConfig()
	tr := mustRun(t, cfg)
	for name, recs := range map[string][]Record{
		"server_to_exit": tr.ServerToExit, "exit_to_server": tr.ExitToServer,
		"guard_to_client": tr.GuardToClient, "client_to_guard": tr.ClientToGuard,
	} {
		if len(recs) == 0 {
			t.Fatalf("%s: empty capture", name)
		}
		for i := 1; i < len(recs); i++ {
			if recs[i].Time.Before(recs[i-1].Time.Add(-cfg.Jitter * 4)) {
				t.Fatalf("%s: timestamps regress at %d", name, i)
			}
		}
	}
	// Duration should be near FileSize/Bottleneck.
	expected := time.Duration(float64(cfg.FileSize) / float64(cfg.BottleneckBps) * float64(time.Second))
	got := tr.Finished.Sub(cfg.Start)
	if got < expected/2 || got > expected*3 {
		t.Fatalf("transfer took %v, expected around %v", got, expected)
	}
}

func TestSnapLenApplied(t *testing.T) {
	cfg := smallConfig()
	tr := mustRun(t, cfg)
	for _, r := range tr.ServerToExit {
		if len(r.Data) > cfg.SnapLen {
			t.Fatalf("capture %d bytes exceeds snaplen %d", len(r.Data), cfg.SnapLen)
		}
	}
	// Headers must still parse and carry the wire length.
	ip, tcp, err := packet.ParseTCPPacketLoose(tr.ServerToExit[0].Data)
	if err != nil {
		t.Fatal(err)
	}
	if ip.Src != cfg.Server || ip.Dst != cfg.Exit {
		t.Fatalf("addresses %v -> %v", ip.Src, ip.Dst)
	}
	if tcp.SrcPort != 80 {
		t.Fatalf("src port %d", tcp.SrcPort)
	}
	if packet.TCPPayloadLen(ip, tcp) != cfg.MSS {
		t.Fatalf("first segment payload %d, want MSS %d", packet.TCPPayloadLen(ip, tcp), cfg.MSS)
	}
}

func TestDeterministic(t *testing.T) {
	cfg := smallConfig()
	a := mustRun(t, cfg)
	b := mustRun(t, cfg)
	if len(a.ServerToExit) != len(b.ServerToExit) || len(a.ClientToGuard) != len(b.ClientToGuard) {
		t.Fatal("nondeterministic capture sizes")
	}
	for i := range a.ServerToExit {
		if !a.ServerToExit[i].Time.Equal(b.ServerToExit[i].Time) {
			t.Fatalf("timestamp %d differs", i)
		}
	}
}

func TestLossCausesRetransmissions(t *testing.T) {
	cfg := smallConfig()
	cfg.LossProb = 0.02
	tr := mustRun(t, cfg)
	// With 2% loss, total data on the wire must exceed the file size.
	data := sumDataBytes(t, tr.ServerToExit)
	if data <= cfg.FileSize {
		t.Fatalf("no retransmissions despite loss: %d <= %d", data, cfg.FileSize)
	}
	// Transfer still completes.
	if got := maxAck(t, tr.ExitToServer); got != uint32(cfg.FileSize) {
		t.Fatalf("final ack %d != %d", got, cfg.FileSize)
	}
	// Sequence numbers repeat for retransmitted segments.
	seen := make(map[uint32]int)
	dups := 0
	for _, r := range tr.ServerToExit {
		_, tcp, err := packet.ParseTCPPacketLoose(r.Data)
		if err != nil {
			t.Fatal(err)
		}
		seen[tcp.Seq]++
		if seen[tcp.Seq] == 2 {
			dups++
		}
	}
	if dups == 0 {
		t.Fatal("no duplicate sequence numbers found")
	}
}

func TestZeroLossNoRetransmissions(t *testing.T) {
	cfg := smallConfig()
	cfg.LossProb = 0
	// Jitter can reorder paced segments (they are ~1 ms apart), which
	// triggers legitimate reordering-induced fast retransmits; disable it
	// to assert the exact byte count.
	cfg.Jitter = 0
	tr := mustRun(t, cfg)
	if data := sumDataBytes(t, tr.ServerToExit); data != cfg.FileSize {
		t.Fatalf("lossless transfer sent %d bytes, want exactly %d", data, cfg.FileSize)
	}
}

func TestAcksAreCumulative(t *testing.T) {
	tr := mustRun(t, smallConfig())
	var prev uint32
	for i, r := range tr.ExitToServer {
		_, tcp, err := packet.ParseTCPPacketLoose(r.Data)
		if err != nil {
			t.Fatal(err)
		}
		if tcp.Ack < prev {
			t.Fatalf("ack regressed at %d: %d < %d", i, tcp.Ack, prev)
		}
		prev = tcp.Ack
	}
	prev = 0
	for i, r := range tr.ClientToGuard {
		_, tcp, err := packet.ParseTCPPacketLoose(r.Data)
		if err != nil {
			t.Fatal(err)
		}
		if tcp.Ack < prev {
			t.Fatalf("client ack regressed at %d", i)
		}
		prev = tcp.Ack
	}
}

func TestClientLagsServer(t *testing.T) {
	// The guard->client stream must lag the server->exit stream by
	// roughly the circuit delay.
	cfg := smallConfig()
	tr := mustRun(t, cfg)
	firstData := tr.ServerToExit[0].Time
	firstClient := tr.GuardToClient[0].Time
	lag := firstClient.Sub(firstData)
	min := cfg.CircuitDelay / 2
	max := cfg.CircuitDelay * 3
	if lag < min || lag > max {
		t.Fatalf("client lag %v, want within [%v, %v]", lag, min, max)
	}
}

func BenchmarkRun2MB(b *testing.B) {
	cfg := smallConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCapturesPresized checks that no capture outgrows the capacity
// newTraces gives it, over the file sizes the experiments use, at the
// default loss rate.
func TestCapturesPresized(t *testing.T) {
	for _, size := range []int{64 << 10, 1 << 20, 2 << 20, 4 << 20} {
		for seed := int64(1); seed <= 3; seed++ {
			cfg := DefaultConfig()
			cfg.FileSize, cfg.Seed = size, seed
			tr, want := mustRun(t, cfg), newTraces(&cfg)
			for _, c := range []struct {
				name     string
				got, cap []Record
			}{
				{"server->exit", tr.ServerToExit, want.ServerToExit},
				{"exit->server", tr.ExitToServer, want.ExitToServer},
				{"guard->client", tr.GuardToClient, want.GuardToClient},
				{"client->guard", tr.ClientToGuard, want.ClientToGuard},
			} {
				if cap(c.got) != cap(c.cap) {
					t.Errorf("size %d seed %d: %s grew to %d records past its %d", size, seed, c.name, len(c.got), cap(c.cap))
				}
			}
		}
	}
}

// TestRunAllocs bounds a 2 MB download's allocations: the presized
// captures, the capture slabs (about four 64 KB chunks), the event heap's
// growth and the loss bookkeeping. Captures regrowing record by record
// would add about forty.
func TestRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	cfg := smallConfig()
	if a := testing.AllocsPerRun(3, func() { mustRun(t, cfg) }); a > 50 {
		t.Errorf("Run allocates %.0f times, want at most 50", a)
	}
}

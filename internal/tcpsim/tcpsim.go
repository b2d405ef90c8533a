// Package tcpsim simulates a TCP file download through a three-hop Tor
// circuit and produces packet captures at the four vantage points of the
// paper's wide-area experiment (§4, Figure 2 right):
//
//   - server → exit: data segments leaving the web server
//   - exit → server: cumulative TCP acknowledgments arriving back
//   - guard → client: the onion-encrypted cell stream reaching the client
//   - client → guard: the client's TCP acknowledgments
//
// The server-side connection runs a compact but real TCP model — slow
// start, congestion avoidance, pacing to a bottleneck rate, delayed
// cumulative ACKs, fast retransmit on triple duplicate ACKs, and RTO
// fallback — while the client-side connection replays the delivered byte
// stream re-chunked into 512-byte Tor cells. Payload bytes are never
// materialised: each capture is exactly the first SnapLen bytes of the
// packet that would have been sent — IPv4 and TCP headers with correct
// sequence/ack numbers, lengths and checksums, then zero payload bytes up
// to the snap — written by packet.AppendTCPHeaders. Downstream analysis
// must recover byte counts from TCP headers alone, exactly like the paper.
package tcpsim

import (
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"quicksand/internal/packet"
)

// Record is one captured packet: a snaplen-truncated raw IPv4 packet plus
// its capture timestamp. The original wire length is recoverable from the
// IPv4 TotalLen field.
type Record struct {
	Time time.Time
	Data []byte
}

// Traces holds the four packet captures of one simulated download.
type Traces struct {
	ServerToExit  []Record
	ExitToServer  []Record
	GuardToClient []Record
	ClientToGuard []Record
	// Finished is when the last byte reached the client.
	Finished time.Time
}

// Config parameterises a simulated download.
type Config struct {
	Seed     int64
	Start    time.Time
	FileSize int // bytes to transfer from server to client
	MSS      int // TCP payload bytes per segment (default 1448)

	// BottleneckBps is the path bottleneck in bytes/second; the paper's
	// transfer moved ~40 MB in ~30 s (≈1.4 MB/s).
	BottleneckBps int

	RTTServerExit  time.Duration // server <-> exit RTT
	RTTClientGuard time.Duration // client <-> guard RTT
	// CircuitDelay is the one-way latency from exit to client through
	// the circuit (three relay hops).
	CircuitDelay time.Duration

	LossProb float64       // per-data-segment loss probability, server->exit
	Jitter   time.Duration // +/- jitter bound applied to deliveries

	// RateVariation models application and cross-traffic burstiness: the
	// effective sending rate is modulated by a per-period random factor
	// in [1-RateVariation, 1+RateVariation]. This burstiness is the
	// timing signal that makes flow correlation possible — a perfectly
	// constant-rate transfer would be uncorrelatable (and unobservable
	// in Figure 2's sense). Zero disables modulation.
	RateVariation float64
	// RatePeriod is how long each rate factor persists (default 300ms).
	RatePeriod time.Duration

	SnapLen int // capture snap length (default 64)

	Client netip.Addr
	Guard  netip.Addr
	Exit   netip.Addr
	Server netip.Addr
}

// DefaultConfig reproduces the paper's experiment shape: a 40 MB download
// finishing in roughly 30 seconds.
func DefaultConfig() Config {
	return Config{
		Seed:           1,
		Start:          time.Date(2014, 7, 10, 12, 0, 0, 0, time.UTC),
		FileSize:       40 << 20,
		MSS:            1448,
		BottleneckBps:  1400 * 1000,
		RTTServerExit:  40 * time.Millisecond,
		RTTClientGuard: 30 * time.Millisecond,
		CircuitDelay:   220 * time.Millisecond,
		LossProb:       0.002,
		Jitter:         3 * time.Millisecond,
		RateVariation:  0.6,
		RatePeriod:     300 * time.Millisecond,
		SnapLen:        64,
		Client:         netip.MustParseAddr("198.51.100.10"),
		Guard:          netip.MustParseAddr("78.46.1.1"),
		Exit:           netip.MustParseAddr("93.115.1.1"),
		Server:         netip.MustParseAddr("203.0.113.80"),
	}
}

func (c *Config) validate() error {
	if c.FileSize <= 0 {
		return fmt.Errorf("tcpsim: FileSize must be positive")
	}
	if c.MSS < 100 || c.MSS > 9000 {
		return fmt.Errorf("tcpsim: MSS %d out of range", c.MSS)
	}
	if c.BottleneckBps <= 0 {
		return fmt.Errorf("tcpsim: BottleneckBps must be positive")
	}
	if c.RTTServerExit <= 0 || c.RTTClientGuard <= 0 || c.CircuitDelay <= 0 {
		return fmt.Errorf("tcpsim: latencies must be positive")
	}
	if c.LossProb < 0 || c.LossProb >= 1 {
		return fmt.Errorf("tcpsim: LossProb %v out of [0,1)", c.LossProb)
	}
	if c.RateVariation < 0 || c.RateVariation >= 1 {
		return fmt.Errorf("tcpsim: RateVariation %v out of [0,1)", c.RateVariation)
	}
	if c.RatePeriod == 0 {
		c.RatePeriod = 300 * time.Millisecond
	}
	if c.RatePeriod < 0 {
		return fmt.Errorf("tcpsim: negative RatePeriod")
	}
	if c.SnapLen == 0 {
		c.SnapLen = 64
	}
	if c.SnapLen < 40 {
		return fmt.Errorf("tcpsim: SnapLen %d too small for IPv4+TCP headers", c.SnapLen)
	}
	for _, a := range []netip.Addr{c.Client, c.Guard, c.Exit, c.Server} {
		if !a.Is4() {
			return fmt.Errorf("tcpsim: all endpoints must have IPv4 addresses")
		}
	}
	return nil
}

// Tor cell geometry: the client-side connection carries the payload
// re-framed into fixed 512-byte cells with 14 bytes of circuit headers,
// which is why the guard→client byte series runs a few percent above the
// server→exit series.
const (
	cellSize    = 512
	cellPayload = 498
)

// slabChunk is the size of the buffers capture records are cut from; the
// four captures of a 2 MB download fill about four.
const slabChunk = 64 << 10

// event kinds for the discrete-event loop.
const (
	evDataArriveExit = iota // data segment reaches the exit
	evAckArriveServer
	evRTO
)

type simEvent struct {
	at   time.Time
	kind int
	seq  int // starting byte offset
	n    int // payload length
	ack  int // cumulative ack (bytes)
	id   int // RTO epoch for stale-timer detection
}

// eventHeap is a binary min-heap on simEvent.at. push and pop are
// container/heap's sift-up and sift-down, so events with equal times leave
// in the same order, without boxing each event into an interface.
type eventHeap []simEvent

func (h *eventHeap) push(e simEvent) {
	*h = append(*h, e)
	q := *h
	for j := len(q) - 1; j > 0; {
		i := (j - 1) / 2
		if !q[j].at.Before(q[i].at) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

func (h *eventHeap) pop() simEvent {
	q := *h
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && q[j2].at.Before(q[j].at) {
			j = j2
		}
		if !q[j].at.Before(q[i].at) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	e := q[n]
	*h = q[:n]
	return e
}

// Run simulates the download and returns the four captures.
func Run(cfg Config) (*Traces, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	tr := &Traces{}

	jitter := func() time.Duration {
		if cfg.Jitter == 0 {
			return 0
		}
		return time.Duration(rng.Int63n(int64(2*cfg.Jitter))) - cfg.Jitter
	}

	const (
		serverPort = 80
		exitPort   = 40000
		guardPort  = 9001
		clientPort = 50000
	)

	// capture records the first SnapLen bytes of the packet carrying
	// payloadLen zero bytes, written straight into a shared slab: the
	// payload itself is never built.
	var slab []byte
	capture := func(dst *[]Record, at time.Time, src, dstIP netip.Addr, tcp *packet.TCPHeader, payloadLen int) error {
		if keep := min(cfg.SnapLen, packet.HeadersLen+payloadLen); cap(slab)-len(slab) < keep {
			slab = make([]byte, 0, max(slabChunk, keep))
		}
		start := len(slab)
		var err error
		if slab, err = packet.AppendTCPHeaders(slab, src, dstIP, tcp, payloadLen, cfg.SnapLen); err != nil {
			return err
		}
		*dst = append(*dst, Record{Time: at, Data: slab[start:len(slab):len(slab)]})
		return nil
	}

	// ---- Server-side TCP connection (server -> exit). ----
	var (
		events     eventHeap
		sndNext    = 0 // next byte to transmit
		sndUna     = 0 // oldest unacknowledged byte
		cwnd       = 10.0 * float64(cfg.MSS)
		ssthresh   = float64(cfg.FileSize)
		lastSend   = cfg.Start
		dupAcks    = 0
		rtoEpoch   = 0
		rto        = 4 * cfg.RTTServerExit
		recovered  = make(map[int]bool) // retransmitted seqs (avoid loops)
		rcvHave    = make(map[int]int)  // out-of-order intervals at exit: start->end
		rcvNext    = 0                  // next in-order byte expected at exit
		segsSinceA = 0
		delivered  = 0 // bytes handed to the circuit
	)

	paceBase := time.Duration(float64(cfg.MSS) / float64(cfg.BottleneckBps) * float64(time.Second))

	// Rate modulation: each RatePeriod gets a persistent random factor,
	// drawn lazily from a dedicated RNG so the factor sequence depends
	// only on the seed, not on the packet schedule.
	rateRng := rand.New(rand.NewSource(cfg.Seed ^ 0x5eed))
	rateFactors := make([]float64, 0, 256)
	rateFactor := func(at time.Time) float64 {
		if cfg.RateVariation == 0 {
			return 1
		}
		idx := int(at.Sub(cfg.Start) / cfg.RatePeriod)
		if idx < 0 {
			idx = 0
		}
		for len(rateFactors) <= idx {
			rateFactors = append(rateFactors, 1-cfg.RateVariation+2*cfg.RateVariation*rateRng.Float64())
		}
		return rateFactors[idx]
	}

	// sendSegment transmits [seq, seq+n) at the earliest paced slot at or
	// after t, capturing it at the server and scheduling its arrival (or
	// loss) at the exit.
	sendSegment := func(t time.Time, seq, n int, retrans bool) error {
		at := t
		paceInterval := time.Duration(float64(paceBase) / rateFactor(lastSend))
		if paced := lastSend.Add(paceInterval); paced.After(at) {
			at = paced
		}
		lastSend = at
		tcp := &packet.TCPHeader{
			SrcPort: serverPort, DstPort: exitPort,
			Seq: uint32(seq), Ack: 0, Flags: packet.FlagACK, Window: 65535,
		}
		if err := capture(&tr.ServerToExit, at, cfg.Server, cfg.Exit, tcp, n); err != nil {
			return err
		}
		lost := rng.Float64() < cfg.LossProb && !retrans
		if !lost {
			events.push(simEvent{
				at: at.Add(cfg.RTTServerExit/2 + jitter()), kind: evDataArriveExit, seq: seq, n: n,
			})
		}
		return nil
	}

	// pump transmits as much new data as the window allows.
	pump := func(t time.Time) error {
		for sndNext < cfg.FileSize && float64(sndNext-sndUna) < cwnd {
			n := cfg.MSS
			if sndNext+n > cfg.FileSize {
				n = cfg.FileSize - sndNext
			}
			if err := sendSegment(t, sndNext, n, false); err != nil {
				return err
			}
			sndNext += n
		}
		return nil
	}

	armRTO := func(t time.Time) {
		rtoEpoch++
		events.push(simEvent{at: t.Add(rto), kind: evRTO, id: rtoEpoch})
	}

	// exitAck emits the exit's cumulative ACK and schedules its arrival
	// at the server.
	exitAck := func(t time.Time) error {
		tcp := &packet.TCPHeader{
			SrcPort: exitPort, DstPort: serverPort,
			Seq: 0, Ack: uint32(rcvNext), Flags: packet.FlagACK, Window: 65535,
		}
		at := t.Add(jitter())
		if err := capture(&tr.ExitToServer, at.Add(cfg.RTTServerExit/2), cfg.Exit, cfg.Server, tcp, 0); err != nil {
			return err
		}
		events.push(simEvent{at: at.Add(cfg.RTTServerExit / 2), kind: evAckArriveServer, ack: rcvNext})
		return nil
	}

	// ---- Client-side connection (guard -> client, cells). ----
	var (
		cellBacklog  = 0 // payload bytes awaiting cell framing
		cellStream   = 0 // cell-stream bytes generated so far
		cgSeq        = 0 // guard->client TCP sequence
		cgSegsSinceA = 0
		cgRcvd       = 0
	)
	clientDeliver := func(t time.Time, n int) error {
		// Re-frame n payload bytes into cells, then into MSS segments on
		// the client-guard connection, arriving at the client at t.
		cellBacklog += n
		newCells := cellBacklog / cellPayload
		cellBacklog %= cellPayload
		cellStream += newCells * cellSize
		if delivered >= cfg.FileSize && cellBacklog > 0 {
			// Final partial cell is padded to a full cell, like Tor.
			cellStream += cellSize
			cellBacklog = 0
		}
		for cellStream-cgSeq >= cfg.MSS || (delivered >= cfg.FileSize && cellStream > cgSeq) {
			segLen := cfg.MSS
			if cellStream-cgSeq < segLen {
				segLen = cellStream - cgSeq
			}
			tcp := &packet.TCPHeader{
				SrcPort: guardPort, DstPort: clientPort,
				Seq: uint32(cgSeq), Flags: packet.FlagACK, Window: 65535,
			}
			at := t.Add(cfg.RTTClientGuard/2 + jitter())
			if err := capture(&tr.GuardToClient, at, cfg.Guard, cfg.Client, tcp, segLen); err != nil {
				return err
			}
			cgSeq += segLen
			cgRcvd = cgSeq
			cgSegsSinceA++
			if cgSegsSinceA >= 2 || delivered >= cfg.FileSize {
				cgSegsSinceA = 0
				ack := &packet.TCPHeader{
					SrcPort: clientPort, DstPort: guardPort,
					Ack: uint32(cgRcvd), Flags: packet.FlagACK, Window: 65535,
				}
				if err := capture(&tr.ClientToGuard, at.Add(time.Millisecond), cfg.Client, cfg.Guard, ack, 0); err != nil {
					return err
				}
			}
			if at.After(tr.Finished) {
				tr.Finished = at
			}
		}
		return nil
	}

	// Kick off: initial window, first RTO.
	if err := pump(cfg.Start); err != nil {
		return nil, err
	}
	armRTO(cfg.Start)

	for len(events) > 0 {
		ev := events.pop()
		switch ev.kind {
		case evDataArriveExit:
			if ev.seq == rcvNext {
				rcvNext = ev.seq + ev.n
				// Absorb any buffered out-of-order segments.
				for {
					end, ok := rcvHave[rcvNext]
					if !ok {
						break
					}
					delete(rcvHave, rcvNext)
					rcvNext = end
				}
			} else if ev.seq > rcvNext {
				rcvHave[ev.seq] = ev.seq + ev.n
			}
			segsSinceA++
			// Delayed ACK: every 2nd segment, any gap, or end of file.
			if segsSinceA >= 2 || ev.seq != rcvNext-ev.n || rcvNext >= cfg.FileSize {
				segsSinceA = 0
				if err := exitAck(ev.at); err != nil {
					return nil, err
				}
			}
			// In-order progress feeds the circuit.
			if rcvNext > delivered {
				n := rcvNext - delivered
				delivered = rcvNext
				if err := clientDeliver(ev.at.Add(cfg.CircuitDelay+jitter()), n); err != nil {
					return nil, err
				}
			}
		case evAckArriveServer:
			if ev.ack > sndUna {
				acked := ev.ack - sndUna
				sndUna = ev.ack
				dupAcks = 0
				if cwnd < ssthresh {
					cwnd += float64(acked) // slow start
				} else {
					cwnd += float64(cfg.MSS) * float64(acked) / cwnd
				}
				armRTO(ev.at)
				if err := pump(ev.at); err != nil {
					return nil, err
				}
			} else if ev.ack == sndUna && sndUna < sndNext {
				dupAcks++
				if dupAcks == 3 && !recovered[sndUna] {
					// Fast retransmit + multiplicative decrease.
					recovered[sndUna] = true
					ssthresh = cwnd / 2
					if ssthresh < 2*float64(cfg.MSS) {
						ssthresh = 2 * float64(cfg.MSS)
					}
					cwnd = ssthresh
					n := cfg.MSS
					if sndUna+n > cfg.FileSize {
						n = cfg.FileSize - sndUna
					}
					if err := sendSegment(ev.at, sndUna, n, true); err != nil {
						return nil, err
					}
				}
			}
		case evRTO:
			if ev.id != rtoEpoch || sndUna >= cfg.FileSize {
				continue // stale timer or done
			}
			if sndUna < sndNext {
				// Timeout: retransmit the oldest segment, collapse cwnd.
				ssthresh = cwnd / 2
				cwnd = float64(cfg.MSS)
				n := cfg.MSS
				if sndUna+n > cfg.FileSize {
					n = cfg.FileSize - sndUna
				}
				if err := sendSegment(ev.at, sndUna, n, true); err != nil {
					return nil, err
				}
			}
			armRTO(ev.at)
		}
		if sndUna >= cfg.FileSize && delivered >= cfg.FileSize {
			break
		}
	}
	if delivered < cfg.FileSize {
		return nil, fmt.Errorf("tcpsim: transfer stalled at %d/%d bytes", delivered, cfg.FileSize)
	}
	return tr, nil
}

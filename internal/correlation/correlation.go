// Package correlation implements the paper's traffic-analysis arithmetic:
// recovering cumulative byte counts from header-only packet captures and
// correlating them across vantage points.
//
// The key move (paper §3.3) is that an adversary who can only see one
// direction of traffic at an end still learns the transfer's progress:
// data packets reveal bytes sent through TCP sequence/length fields, and
// acknowledgment packets reveal bytes received through the cumulative ACK
// field. Because ACKs are cumulative there is no packet-for-packet
// correspondence between the two ends, so the analysis bins both sides
// into a shared timeline and correlates per-bin byte increments.
package correlation

import (
	"errors"
	"fmt"
	"time"

	"quicksand/internal/packet"
	"quicksand/internal/stats"
	"quicksand/internal/tcpsim"
)

// Series is a cumulative byte count sampled on a regular grid: Cum[i] is
// the total number of bytes sent (or acknowledged) by time
// Start + (i+1)*Bin.
type Series struct {
	Start time.Time
	Bin   time.Duration
	Cum   []float64
}

// ErrNoPackets is returned when a capture holds no parseable packets.
var ErrNoPackets = errors.New("correlation: no packets in capture")

// DataSeries recovers the cumulative bytes *sent* from a capture of data
// packets, by summing the TCP payload lengths implied by each packet's
// IPv4 TotalLen and header lengths (snaplen-truncated captures are fine).
func DataSeries(recs []tcpsim.Record, start time.Time, bin time.Duration, nbins int) (Series, error) {
	if err := checkGrid(bin, nbins); err != nil {
		return Series{}, err
	}
	s := Series{Start: start, Bin: bin, Cum: make([]float64, nbins)}
	seen := false
	for _, r := range recs {
		ip, tcp, err := packet.ParseTCPPacketLoose(r.Data)
		if err != nil {
			return Series{}, fmt.Errorf("correlation: %w", err)
		}
		n := packet.TCPPayloadLen(ip, tcp)
		if n == 0 {
			continue
		}
		seen = true
		idx := binIndex(r.Time, start, bin, nbins)
		if idx < 0 {
			continue
		}
		s.Cum[idx] += float64(n)
	}
	if !seen {
		return Series{}, ErrNoPackets
	}
	accumulate(s.Cum)
	return s, nil
}

// AckSeries recovers the cumulative bytes *acknowledged* from a capture of
// TCP acknowledgments: the highest cumulative ACK value observed by the
// end of each bin (carried forward through empty bins).
func AckSeries(recs []tcpsim.Record, start time.Time, bin time.Duration, nbins int) (Series, error) {
	if err := checkGrid(bin, nbins); err != nil {
		return Series{}, err
	}
	s := Series{Start: start, Bin: bin, Cum: make([]float64, nbins)}
	base := -1.0 // first ACK seen becomes the zero point (relative seq)
	seen := false
	for _, r := range recs {
		_, tcp, err := packet.ParseTCPPacketLoose(r.Data)
		if err != nil {
			return Series{}, fmt.Errorf("correlation: %w", err)
		}
		if !tcp.HasFlag(packet.FlagACK) {
			continue
		}
		seen = true
		if base < 0 {
			base = 0 // synthetic traces use absolute byte offsets from 0
		}
		idx := binIndex(r.Time, start, bin, nbins)
		if idx < 0 {
			continue
		}
		v := float64(tcp.Ack)
		if v > s.Cum[idx] {
			s.Cum[idx] = v
		}
	}
	if !seen {
		return Series{}, ErrNoPackets
	}
	// Carry the running maximum forward so empty bins hold the last
	// known cumulative value.
	for i := 1; i < len(s.Cum); i++ {
		if s.Cum[i] < s.Cum[i-1] {
			s.Cum[i] = s.Cum[i-1]
		}
	}
	return s, nil
}

func checkGrid(bin time.Duration, nbins int) error {
	if bin <= 0 {
		return fmt.Errorf("correlation: non-positive bin %v", bin)
	}
	if nbins <= 1 {
		return fmt.Errorf("correlation: need at least 2 bins, got %d", nbins)
	}
	return nil
}

// binIndex maps t onto the grid; times past the last bin clamp into it,
// times before start are discarded (-1).
func binIndex(t time.Time, start time.Time, bin time.Duration, nbins int) int {
	d := t.Sub(start)
	if d < 0 {
		return -1
	}
	idx := int(d / bin)
	if idx >= nbins {
		idx = nbins - 1
	}
	return idx
}

func accumulate(xs []float64) {
	for i := 1; i < len(xs); i++ {
		xs[i] += xs[i-1]
	}
}

// Increments returns the per-bin byte deltas of the series.
func (s Series) Increments() []float64 {
	if len(s.Cum) == 0 {
		return nil
	}
	out := make([]float64, len(s.Cum))
	out[0] = s.Cum[0]
	for i := 1; i < len(s.Cum); i++ {
		out[i] = s.Cum[i] - s.Cum[i-1]
	}
	return out
}

// Correlate computes the maximum lagged Pearson correlation between the
// per-bin increments of two series, searching lags in [-maxLag, +maxLag]
// bins (a positive returned lag means b trails a). The series must share
// bin width and length.
//
// The lag search matters because the two vantage points sit at opposite
// ends of the circuit: the client-side series trails the server-side one
// by the circuit latency, so the zero-lag correlation of a bursty
// transfer is near zero while the correctly-aligned one is near 1 — this
// alignment is the "correlation over time" of the paper's §3.3 analysis.
// A high score means the two vantage points are watching the same
// transfer, regardless of direction (data vs ACKs).
func Correlate(a, b Series, maxLag int) (r float64, lag int, err error) {
	if a.Bin != b.Bin {
		return 0, 0, fmt.Errorf("correlation: bin mismatch %v vs %v", a.Bin, b.Bin)
	}
	if len(a.Cum) != len(b.Cum) {
		return 0, 0, fmt.Errorf("correlation: length mismatch %d vs %d", len(a.Cum), len(b.Cum))
	}
	if maxLag < 0 || maxLag >= len(a.Cum)-1 {
		return 0, 0, fmt.Errorf("correlation: maxLag %d out of range for %d bins", maxLag, len(a.Cum))
	}
	ai := a.Increments()
	bi := b.Increments()
	best := -2.0
	bestLag := 0
	found := false
	for l := -maxLag; l <= maxLag; l++ {
		var x, y []float64
		if l >= 0 {
			x, y = ai[:len(ai)-l], bi[l:]
		} else {
			x, y = ai[-l:], bi[:len(bi)+l]
		}
		p, perr := stats.Pearson(x, y)
		if perr != nil {
			continue // zero variance at this alignment
		}
		found = true
		if p > best {
			best, bestLag = p, l
		}
	}
	if !found {
		return 0, 0, errors.New("correlation: no lag with defined correlation")
	}
	return best, bestLag, nil
}

// MatchResult reports a flow-matching outcome: the index of the best-
// scoring candidate and every candidate's correlation against the target
// (candidates that fail to correlate score -1).
type MatchResult struct {
	Best   int
	Scores []float64
}

// MatchFlows ranks candidate series by lagged correlation against the
// target and returns the best match — the deanonymization step: the
// adversary holds the series observed near the destination and asks which
// of many client-side series it lines up with.
func MatchFlows(target Series, candidates []Series, maxLag int) (MatchResult, error) {
	if len(candidates) == 0 {
		return MatchResult{}, fmt.Errorf("correlation: no candidates")
	}
	res := MatchResult{Best: -1, Scores: make([]float64, len(candidates))}
	best := -2.0
	for i, c := range candidates {
		r, _, err := Correlate(target, c, maxLag)
		if err != nil {
			res.Scores[i] = -1
			continue
		}
		res.Scores[i] = r
		if r > best {
			best = r
			res.Best = i
		}
	}
	if res.Best < 0 {
		return res, fmt.Errorf("correlation: no candidate correlated with target")
	}
	return res, nil
}

// SegmentSeries computes the four per-segment series of Figure 2 (right)
// from one simulated download: bytes sent server→exit and guard→client,
// bytes acknowledged exit→server and client→guard, on a shared grid
// anchored at start.
type SegmentSeries struct {
	ServerToExit  Series // data bytes sent by the server
	ExitToServer  Series // bytes acked back to the server
	GuardToClient Series // cell-stream bytes sent to the client
	ClientToGuard Series // bytes acked by the client
}

// FromTraces builds the four segment series from traces, binned at bin
// over nbins intervals starting at start.
func FromTraces(tr *tcpsim.Traces, start time.Time, bin time.Duration, nbins int) (*SegmentSeries, error) {
	se, err := DataSeries(tr.ServerToExit, start, bin, nbins)
	if err != nil {
		return nil, fmt.Errorf("server_to_exit: %w", err)
	}
	es, err := AckSeries(tr.ExitToServer, start, bin, nbins)
	if err != nil {
		return nil, fmt.Errorf("exit_to_server: %w", err)
	}
	gc, err := DataSeries(tr.GuardToClient, start, bin, nbins)
	if err != nil {
		return nil, fmt.Errorf("guard_to_client: %w", err)
	}
	cg, err := AckSeries(tr.ClientToGuard, start, bin, nbins)
	if err != nil {
		return nil, fmt.Errorf("client_to_guard: %w", err)
	}
	return &SegmentSeries{ServerToExit: se, ExitToServer: es, GuardToClient: gc, ClientToGuard: cg}, nil
}

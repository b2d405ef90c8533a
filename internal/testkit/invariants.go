package testkit

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/netip"
	"sort"
	"time"

	"quicksand/internal/bgp"
	"quicksand/internal/bgpsim"
	"quicksand/internal/iptrie"
	"quicksand/internal/mrt"
	"quicksand/internal/pcap"
	"quicksand/internal/stats"
	"quicksand/internal/topology"
	"quicksand/internal/torconsensus"
	"quicksand/internal/torpath"
)

// CheckPath verifies one announced AS path against the Gao-Rexford model
// on g: the path must start at the vantage, be loop-free, be adjacent
// hop-by-hop and valley-free, and terminate at an allowed origin.
func CheckPath(g *topology.Graph, vantage bgp.ASN, path []bgp.ASN, allowedOrigins map[bgp.ASN]bool) error {
	if len(path) == 0 {
		return fmt.Errorf("empty path")
	}
	if path[0] != vantage {
		return fmt.Errorf("path %v does not start at vantage %v", path, vantage)
	}
	seen := make(map[bgp.ASN]bool, len(path))
	for _, a := range path {
		if seen[a] {
			return fmt.Errorf("path %v loops through %v", path, a)
		}
		seen[a] = true
	}
	if !g.ValleyFree(path) {
		return fmt.Errorf("path %v is not valley-free", path)
	}
	if o := path[len(path)-1]; !allowedOrigins[o] {
		return fmt.Errorf("path %v ends at %v, not an allowed origin", path, o)
	}
	return nil
}

// CheckStreamPolicy verifies every path a simulated update stream
// carries — initial tables and all announcements — against the pristine
// topology: vantage-first, loop-free, valley-free, and originated by the
// prefix's legitimate origin or by an attacker recorded in the stream's
// hijack ground truth.
//
// Sound only for streams generated with Config.PolicyEvents == 0 (see
// RandomChurnConfig): link failures remove edges, so every surviving hop
// exists in the pristine graph with its original relationship, whereas a
// policy shift can add a peering the pristine graph never had.
func CheckStreamPolicy(g *topology.Graph, st *bgpsim.Stream, origins map[netip.Prefix]bgp.ASN) error {
	allowed := make(map[netip.Prefix]map[bgp.ASN]bool, len(origins))
	originsFor := func(p netip.Prefix) map[bgp.ASN]bool {
		m, ok := allowed[p]
		if !ok {
			m = map[bgp.ASN]bool{origins[p]: true}
			for _, a := range st.Attacks {
				if a.Prefix == p {
					m[a.Attacker] = true
				}
			}
			allowed[p] = m
		}
		return m
	}
	for si := range st.Sessions {
		v := st.Sessions[si].PeerAS
		for p, path := range st.Initial[si] {
			if err := CheckPath(g, v, path, originsFor(p)); err != nil {
				return fmt.Errorf("session %d initial %v: %w", si, p, err)
			}
		}
	}
	for i := range st.Updates {
		u := &st.Updates[i]
		if u.Withdraw() {
			continue
		}
		v := st.Sessions[u.Session].PeerAS
		if err := CheckPath(g, v, u.Path, originsFor(u.Prefix)); err != nil {
			return fmt.Errorf("session %d update at %v for %v: %w",
				u.Session, u.Time.Format(time.RFC3339), u.Prefix, err)
		}
	}
	return nil
}

// CheckResetTransfer verifies the post-reset table-transfer invariant:
// once a session's full-table re-announcement completes, the session's
// known table must equal the live routing state restricted to the
// session's visibility — no stale paths from before the outage, no
// prefixes silently dropped. It has the bgpsim.Config.TransferCheck
// signature, so tests wire it straight into a churn run.
func CheckResetTransfer(si int, up time.Time, known, live map[netip.Prefix][]bgp.ASN) error {
	for p, kp := range known {
		lp, ok := live[p]
		if !ok {
			return fmt.Errorf("session %d transfer at %v: %v announced %v, live table has no path",
				si, up.Format(time.RFC3339), p, kp)
		}
		if len(kp) != len(lp) {
			return fmt.Errorf("session %d transfer at %v: %v announced %v, live path is %v",
				si, up.Format(time.RFC3339), p, kp, lp)
		}
		for i := range kp {
			if kp[i] != lp[i] {
				return fmt.Errorf("session %d transfer at %v: %v announced %v, live path is %v",
					si, up.Format(time.RFC3339), p, kp, lp)
			}
		}
	}
	for p := range live {
		if _, ok := known[p]; !ok {
			return fmt.Errorf("session %d transfer at %v: live prefix %v missing from announced table",
				si, up.Format(time.RFC3339), p)
		}
	}
	return nil
}

// CheckLPM cross-checks the iptrie against a brute-force linear oracle:
// for every probe address, LongestMatch must return the most specific
// containing prefix and Matches must return exactly the containing
// prefixes in ascending specificity; Get must find every inserted entry.
func CheckLPM(entries map[netip.Prefix]int, probes []netip.Addr) error {
	var trie iptrie.Trie[int]
	for p, v := range entries {
		if _, err := trie.Insert(p, v); err != nil {
			return fmt.Errorf("insert %v: %w", p, err)
		}
	}
	if trie.Len() != len(entries) {
		return fmt.Errorf("trie has %d entries, inserted %d", trie.Len(), len(entries))
	}
	for p, v := range entries {
		got, ok := trie.Get(p)
		if !ok || got != v {
			return fmt.Errorf("Get(%v) = %d, %v; want %d, true", p, got, ok, v)
		}
	}
	for _, addr := range probes {
		// Linear oracle: scan every prefix.
		var want []netip.Prefix
		for p := range entries {
			if p.Contains(addr) {
				want = append(want, p)
			}
		}
		sort.Slice(want, func(i, j int) bool { return want[i].Bits() < want[j].Bits() })

		gotMatches := trie.Matches(addr)
		if len(gotMatches) != len(want) {
			return fmt.Errorf("Matches(%v): got %d prefixes, oracle %d", addr, len(gotMatches), len(want))
		}
		for i, e := range gotMatches {
			if e.Prefix != want[i] || e.Value != entries[want[i]] {
				return fmt.Errorf("Matches(%v)[%d] = %v/%d, oracle %v/%d",
					addr, i, e.Prefix, e.Value, want[i], entries[want[i]])
			}
		}

		gotP, gotV, gotOK := trie.LongestMatch(addr)
		if len(want) == 0 {
			if gotOK {
				return fmt.Errorf("LongestMatch(%v) = %v, oracle has no match", addr, gotP)
			}
			continue
		}
		best := want[len(want)-1]
		if !gotOK || gotP != best || gotV != entries[best] {
			return fmt.Errorf("LongestMatch(%v) = %v/%d/%v, oracle %v/%d",
				addr, gotP, gotV, gotOK, best, entries[best])
		}
	}
	return nil
}

// CheckBGPRoundTrip verifies byte-exact round-trip identity of the
// UPDATE codec on n random messages: Marshal → ParseUpdate → Marshal
// must reproduce the wire bytes bit-for-bit.
func CheckBGPRoundTrip(rng *rand.Rand, n int) error {
	for i := 0; i < n; i++ {
		as4 := rng.Intn(2) == 0
		u := RandomUpdate(rng, as4)
		wire, err := u.Marshal(as4)
		if err != nil {
			return fmt.Errorf("update %d: marshal: %w", i, err)
		}
		u2, err := bgp.ParseUpdate(wire, as4)
		if err != nil {
			return fmt.Errorf("update %d: parse: %w", i, err)
		}
		wire2, err := u2.Marshal(as4)
		if err != nil {
			return fmt.Errorf("update %d: re-marshal: %w", i, err)
		}
		if !bytes.Equal(wire, wire2) {
			return fmt.Errorf("update %d (as4=%v): round trip diverged\n  first:  %x\n  second: %x", i, as4, wire, wire2)
		}
	}
	return nil
}

// CheckMRTRoundTrip verifies byte-exact round-trip identity of the MRT
// codec: n random records of every supported kind are written, read
// back, and written again; the two encodings must be identical.
func CheckMRTRoundTrip(rng *rand.Rand, n int) error {
	base := time.Date(2014, 5, 1, 0, 0, 0, 0, time.UTC)
	var first bytes.Buffer
	w := mrt.NewWriter(&first)
	for i := 0; i < n; i++ {
		ts := base.Add(time.Duration(rng.Intn(86400)) * time.Second)
		switch rng.Intn(4) {
		case 0:
			as4 := rng.Intn(2) == 0
			u := RandomUpdate(rng, as4)
			data, err := u.Marshal(as4)
			if err != nil {
				return fmt.Errorf("record %d: marshal update: %w", i, err)
			}
			err = w.WriteMessage(ts, &mrt.BGP4MPMessage{
				PeerAS: RandomASN(rng, as4), LocalAS: RandomASN(rng, as4),
				Interface: uint16(rng.Intn(1 << 16)),
				PeerIP:    RandomAddr4(rng), LocalIP: RandomAddr4(rng),
				AS4: as4, Data: data,
			})
			if err != nil {
				return fmt.Errorf("record %d: write message: %w", i, err)
			}
		case 1:
			as4 := rng.Intn(2) == 0
			err := w.WriteStateChange(ts, &mrt.BGP4MPStateChange{
				PeerAS: RandomASN(rng, as4), LocalAS: RandomASN(rng, as4),
				Interface: uint16(rng.Intn(1 << 16)),
				PeerIP:    RandomAddr4(rng), LocalIP: RandomAddr4(rng),
				AS4:      as4,
				OldState: mrt.StateEstablished, NewState: 1 + rng.Intn(6),
			})
			if err != nil {
				return fmt.Errorf("record %d: write state change: %w", i, err)
			}
		case 2:
			t := &mrt.PeerIndexTable{
				CollectorBGPID: RandomAddr4(rng),
				ViewName:       "testkit",
			}
			for k := rng.Intn(4); k >= 0; k-- {
				t.Peers = append(t.Peers, mrt.Peer{
					BGPID: RandomAddr4(rng), IP: RandomAddr4(rng), AS: RandomASN(rng, true),
				})
			}
			if err := w.WritePeerIndexTable(ts, t); err != nil {
				return fmt.Errorf("record %d: write peer index: %w", i, err)
			}
		default:
			r := &mrt.RIBIPv4Unicast{
				Sequence: rng.Uint32(),
				Prefix:   RandomPrefix(rng),
			}
			for k := rng.Intn(3); k >= 0; k-- {
				r.Entries = append(r.Entries, mrt.RIBEntry{
					PeerIndex:      rng.Intn(1 << 16),
					OriginatedTime: base.Add(time.Duration(rng.Intn(86400)) * time.Second),
					Attrs:          RandomPathAttributes(rng, true),
				})
			}
			if err := w.WriteRIB(ts, r); err != nil {
				return fmt.Errorf("record %d: write RIB: %w", i, err)
			}
		}
	}

	var second bytes.Buffer
	w2 := mrt.NewWriter(&second)
	r := mrt.NewReader(bytes.NewReader(first.Bytes()))
	for i := 0; ; i++ {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("read record %d: %w", i, err)
		}
		ts := rec.Header.Timestamp
		switch {
		case rec.Message != nil:
			err = w2.WriteMessage(ts, rec.Message)
		case rec.StateChange != nil:
			err = w2.WriteStateChange(ts, rec.StateChange)
		case rec.PeerIndex != nil:
			err = w2.WritePeerIndexTable(ts, rec.PeerIndex)
		case rec.RIB != nil:
			err = w2.WriteRIB(ts, rec.RIB)
		default:
			return fmt.Errorf("record %d: no payload decoded", i)
		}
		if err != nil {
			return fmt.Errorf("rewrite record %d: %w", i, err)
		}
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		return fmt.Errorf("MRT round trip diverged: %d bytes vs %d", first.Len(), second.Len())
	}
	return nil
}

// CheckPcapRoundTrip verifies byte-exact round-trip identity of the pcap
// codec on n random packets, including snaplen-truncated ones.
func CheckPcapRoundTrip(rng *rand.Rand, n int) error {
	const snapLen = 256
	base := time.Date(2014, 5, 1, 0, 0, 0, 0, time.UTC)
	var first bytes.Buffer
	w, err := pcap.NewWriter(&first, pcap.LinkTypeRaw, snapLen)
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		ts := base.Add(time.Duration(rng.Int63n(int64(24 * time.Hour)))).Truncate(time.Microsecond)
		size := rng.Intn(2 * snapLen) // half the packets exceed the snaplen
		data := make([]byte, size)
		rng.Read(data)
		if err := w.WritePacket(ts, data, 0); err != nil {
			return fmt.Errorf("packet %d: %w", i, err)
		}
	}

	pkts, link, err := pcap.ReadAll(bytes.NewReader(first.Bytes()))
	if err != nil {
		return fmt.Errorf("read back: %w", err)
	}
	var second bytes.Buffer
	w2, err := pcap.NewWriter(&second, link, snapLen)
	if err != nil {
		return err
	}
	for i := range pkts {
		if err := w2.WritePacket(pkts[i].Time, pkts[i].Data, pkts[i].OrigLen); err != nil {
			return fmt.Errorf("rewrite packet %d: %w", i, err)
		}
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		return fmt.Errorf("pcap round trip diverged: %d bytes vs %d", first.Len(), second.Len())
	}
	return nil
}

// CheckConsensusRoundTrip verifies byte-exact round-trip identity of the
// consensus document codec: WriteTo → Parse → WriteTo must reproduce the
// document bit-for-bit.
func CheckConsensusRoundTrip(c *torconsensus.Consensus) error {
	var first bytes.Buffer
	if _, err := c.WriteTo(&first); err != nil {
		return fmt.Errorf("write: %w", err)
	}
	c2, err := torconsensus.Parse(bytes.NewReader(first.Bytes()))
	if err != nil {
		return fmt.Errorf("parse: %w", err)
	}
	var second bytes.Buffer
	if _, err := c2.WriteTo(&second); err != nil {
		return fmt.Errorf("rewrite: %w", err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		return fmt.Errorf("consensus round trip diverged: %d bytes vs %d", first.Len(), second.Len())
	}
	return nil
}

// CheckSelectionWeights draws `draws` bandwidth-weighted picks over the
// consensus's guard relays and tests the empirical counts against the
// analytic selection probabilities with a chi-square goodness-of-fit
// test, failing when p < minP. Small expected bins are merged per the
// usual validity rule before testing.
func CheckSelectionWeights(cons *torconsensus.Consensus, seed int64, draws int, minP float64) error {
	cands := cons.Guards()
	if len(cands) < 2 {
		return fmt.Errorf("need at least 2 guard candidates, have %d", len(cands))
	}
	sel := torpath.NewSelector(cons, seed)
	counts := make(map[string]int, len(cands))
	for i := 0; i < draws; i++ {
		r := sel.WeightedPick(cands, nil)
		if r == nil {
			return fmt.Errorf("draw %d returned no relay", i)
		}
		counts[r.Identity]++
	}
	probs := torpath.SelectionProb(cands)
	observed := make([]float64, len(cands))
	expected := make([]float64, len(cands))
	for i, r := range cands {
		observed[i] = float64(counts[r.Identity])
		expected[i] = probs[r.Identity] * float64(draws)
	}
	obs, exp, err := stats.MergeSmallBins(observed, expected, 5)
	if err != nil {
		return fmt.Errorf("merging bins: %w", err)
	}
	stat, df, p, err := stats.ChiSquare(obs, exp)
	if err != nil {
		return fmt.Errorf("chi-square: %w", err)
	}
	if p < minP {
		return fmt.Errorf("selection does not match bandwidth weights: chi2=%.2f df=%d p=%.3g < %g",
			stat, df, p, minP)
	}
	return nil
}

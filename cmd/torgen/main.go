// Command torgen generates a synthetic Tor network-status consensus in
// dir-spec text format, matching the July-2014 relay population the paper
// measured, plus a prefix origination table mapping each relay-hosting
// prefix to its origin AS.
//
// Usage:
//
//	torgen [-scale small|paper] [-seed N] [-out consensus.txt] [-prefixes prefixes.txt] [-trace FILE]
package main

import (
	"bufio"
	"flag"
	"fmt"
	"net/netip"
	"os"
	"slices"

	"quicksand"
	"quicksand/internal/bgp"
	"quicksand/internal/obs"
)

func main() {
	scale := flag.String("scale", "small", "world scale: small or paper")
	seed := flag.Int64("seed", 1, "root seed")
	out := flag.String("out", "consensus.txt", "consensus output file")
	prefixes := flag.String("prefixes", "prefixes.txt", "prefix origination output file")
	trace := flag.String("trace", "", "write a JSONL span trace to this file; a per-phase wall-time summary prints at exit")
	flag.Parse()
	tr, traceDone, err := obs.OpenTrace(*trace, os.Stderr, obs.String("run", obs.NewRunID()))
	if err == nil {
		err = run(*scale, *seed, *out, *prefixes, tr)
		if terr := traceDone(); err == nil {
			err = terr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "torgen:", err)
		os.Exit(1)
	}
}

// run generates the consensus and prefix table. tr is the (nil-safe)
// tracer from -trace.
func run(scale string, seed int64, out, prefixFile string, tr *obs.Tracer) error {
	sc, err := quicksand.ScaleConfigs(scale, seed)
	if err != nil {
		return err
	}
	sp := tr.Start("build_world", obs.String("scale", scale))
	w, err := quicksand.BuildWorld(sc.World)
	sp.End()
	if err != nil {
		return err
	}

	sp = tr.Start("write_output")
	defer sp.End()
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if _, err := w.Consensus.WriteTo(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}

	pf, err := os.Create(prefixFile)
	if err != nil {
		return err
	}
	pw := bufio.NewWriter(pf)
	type row struct {
		p netip.Prefix
		a bgp.ASN
	}
	rows := make([]row, 0, len(w.Hosting.Prefixes))
	for p, a := range w.Hosting.Prefixes {
		rows = append(rows, row{p, a})
	}
	slices.SortFunc(rows, func(a, b row) int { return bgp.ComparePrefix(a.p, b.p) })
	for _, r := range rows {
		fmt.Fprintf(pw, "%s %d\n", r.p, uint32(r.a))
	}
	if err := pw.Flush(); err != nil {
		pf.Close()
		return err
	}
	if err := pf.Close(); err != nil {
		return err
	}

	fmt.Printf("wrote %s (%d relays) and %s (%d prefixes, %d origin ASes)\n",
		out, len(w.Consensus.Relays), prefixFile, len(w.Hosting.Prefixes),
		len(w.Hosting.OriginASes()))
	return nil
}

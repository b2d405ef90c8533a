// Command bgpgen generates a synthetic month of BGP churn over the
// quicksand world and archives it in MRT format, one RIB snapshot
// (TABLE_DUMP_V2) and one update file (BGP4MP) per collector — the same
// artefact layout the RIPE RIS collectors publish and the paper consumed.
//
// Usage:
//
//	bgpgen [-scale small|paper] [-seed N] [-out DIR] [-attacks N] [-trace FILE]
//
// Output files: DIR/<collector>.rib.mrt and DIR/<collector>.updates.mrt.
// With -attacks N, N same-prefix hijacks of the world's Tor prefixes are
// embedded in the churn — detector fodder for `quicksand serve -mrt`.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"quicksand"
	"quicksand/internal/obs"
)

func main() {
	scale := flag.String("scale", "small", "world scale: small or paper")
	seed := flag.Int64("seed", 1, "root seed")
	out := flag.String("out", ".", "output directory")
	attacks := flag.Int("attacks", 0, "embed this many same-prefix hijacks of Tor prefixes in the churn")
	trace := flag.String("trace", "", "write a JSONL span trace to this file; a per-phase wall-time summary prints at exit")
	flag.Parse()
	tr, traceDone, err := obs.OpenTrace(*trace, os.Stderr, obs.String("run", obs.NewRunID()))
	if err == nil {
		err = run(*scale, *seed, *out, *attacks, tr)
		if terr := traceDone(); err == nil {
			err = terr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bgpgen:", err)
		os.Exit(1)
	}
}

// run generates the archives. tr is the (nil-safe) tracer from -trace.
func run(scale string, seed int64, out string, attacks int, tr *obs.Tracer) error {
	sc, err := quicksand.ScaleConfigs(scale, seed)
	if err != nil {
		return err
	}

	fmt.Fprintf(os.Stderr, "building %s world...\n", scale)
	sp := tr.Start("build_world", obs.String("scale", scale))
	w, err := quicksand.BuildWorld(sc.World)
	sp.End()
	if err != nil {
		return err
	}
	if attacks > 0 {
		sc.Month.InjectHijacks = attacks
		sc.Month.HijackTargets = w.SortedTorPrefixes()
	}
	fmt.Fprintf(os.Stderr, "simulating churn over %v...\n", sc.Month.Duration)
	sp = tr.Start("simulate_churn", obs.Int("attacks", attacks))
	st, err := w.SimulateMonth(sc.Month)
	sp.End()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	exp := tr.Start("export_mrt", obs.Int("collectors", len(sc.Month.Collectors)))
	defer exp.End()
	for _, c := range sc.Month.Collectors {
		ribPath := filepath.Join(out, c.Name+".rib.mrt")
		updPath := filepath.Join(out, c.Name+".updates.mrt")
		rib, err := os.Create(ribPath)
		if err != nil {
			return err
		}
		if err := st.ExportRIB(rib, c.Name); err != nil {
			rib.Close()
			return err
		}
		if err := rib.Close(); err != nil {
			return err
		}
		upd, err := os.Create(updPath)
		if err != nil {
			return err
		}
		if err := st.ExportUpdates(upd, c.Name); err != nil {
			upd.Close()
			return err
		}
		if err := upd.Close(); err != nil {
			return err
		}
		fmt.Printf("%s: wrote %s and %s\n", c.Name, ribPath, updPath)
	}
	fmt.Printf("stream: %d sessions, %d updates, %d resets, %d attacks over %v\n",
		len(st.Sessions), len(st.Updates), len(st.Resets), len(st.Attacks), st.End.Sub(st.Start))
	return nil
}

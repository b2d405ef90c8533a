// Command quicksand regenerates every table and figure of "Anonymity on
// QuickSand: Using BGP to Compromise Tor" (HotNets 2014) from the
// synthetic substrates in this repository.
//
// Usage:
//
//	quicksand [flags] <experiment>
//	quicksand serve [flags]
//
// The serve subcommand runs the long-lived monitord daemon instead of a
// batch experiment: a live BGP listener, MRT ingest, a streaming §5
// monitor, and an HTTP API (see serve.go and `quicksand serve -h`).
// With -fleet N the daemon runs N dispatcher shards and drops every
// update no watched prefix covers before the RIB (see
// monitord.Config.DropUnwatched).
//
// Experiments:
//
//	dataset    E1  — §4 methodology statistics
//	fig2left   F2L — AS concentration of guard/exit relays
//	fig2right  F2R — asymmetric traffic analysis feasibility
//	fig3left   F3L — Tor-prefix path-change ratio CCDF
//	fig3right  F3R — extra-AS exposure CCDF
//	anonymity  E2  — §3.1 anonymity degradation model
//	hijack     E3  — prefix hijack study
//	intercept  E4  — interception + asymmetric deanonymization
//	defend     E5  — §5 countermeasure evaluation
//	convergence E6 — convergence-transient exposure (extension)
//	rotation   E7  — guard-lifetime study (extension)
//	rov        E8  — ROV deployment sweep (extension)
//	detect     E9  — in-stream attack detection (extension)
//	resilience E10 — Counter-RAPTOR resilience-weighted guards (extension)
//	ablation   reset-filter ablation
//	all        everything above in order
//
// Flags:
//
//	-scale small|paper   world size and study sizes (default small;
//	                     paper ≈ the real July-2014 population; see
//	                     quicksand.ScaleConfigs)
//	-seed N              root seed (default 1)
//	-workers N           worker goroutines per study (default: one per
//	                     CPU); results are identical for any value
//	-pcap DIR            write fig2right captures as .pcap files
//	-v                   structured per-experiment and per-trial progress
//	                     logs with an ETA (off by default)
//	-trace FILE          write a JSONL span trace; a per-phase wall-time
//	                     summary is printed at exit
//
// Every study derives one RNG per trial from the root seed, so output
// is bit-for-bit identical regardless of -workers. Under "all", the
// independent experiments additionally run concurrently (world and
// stream are built first); their outputs are printed in the canonical
// order.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"quicksand"
	"quicksand/internal/analysis"
	"quicksand/internal/bgpsim"
	"quicksand/internal/obs"
	"quicksand/internal/par"
	"quicksand/internal/stats"
	"quicksand/internal/tcpsim"
)

// subcommands have their own flag sets; main dispatches to them before
// the experiment flags are parsed.
var subcommands = map[string]func(args []string) error{
	"serve": serveCmd,
}

func main() {
	if len(os.Args) > 1 {
		if cmd, ok := subcommands[os.Args[1]]; ok {
			if err := cmd(os.Args[2:]); err != nil {
				fmt.Fprintf(os.Stderr, "quicksand %s: %v\n", os.Args[1], err)
				os.Exit(1)
			}
			return
		}
	}
	o := experimentFlags(flag.CommandLine)
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() != 1 {
		usage()
		os.Exit(2)
	}
	if err := run(flag.Arg(0), o); err != nil {
		fmt.Fprintln(os.Stderr, "quicksand:", err)
		os.Exit(1)
	}
}

// expOpts are the parsed flags of an experiment run.
type expOpts struct {
	scale     string
	seed      int64
	workers   int
	pcapDir   string
	verbose   bool
	traceFile string
}

func experimentFlags(fs *flag.FlagSet) *expOpts {
	o := &expOpts{}
	fs.StringVar(&o.scale, "scale", "small", "world scale: small or paper")
	fs.Int64Var(&o.seed, "seed", 1, "root seed")
	fs.IntVar(&o.workers, "workers", 0, "worker goroutines per study (<1 = one per CPU)")
	fs.StringVar(&o.pcapDir, "pcap", "", "directory to write fig2right packet captures (.pcap) into")
	fs.BoolVar(&o.verbose, "v", false, "log structured per-experiment and per-trial progress (with ETA)")
	fs.StringVar(&o.traceFile, "trace", "", "write a JSONL span trace to this file; a per-phase wall-time summary prints at exit")
	return o
}

const usageText = `usage: quicksand [-scale small|paper] [-seed N] [-workers N] [-pcap DIR]
                 [-v] [-trace FILE] <experiment>
       quicksand serve [flags]   (long-running route monitor; see serve -h)

experiments: dataset fig2left fig2right fig3left fig3right
             anonymity hijack intercept defend
             convergence rotation rov detect resilience ablation all
`

func usage() { fmt.Fprint(os.Stderr, usageText) }

// app carries lazily built shared state: the world and the simulated
// update stream (several experiments need both; "all" builds them once
// up front and then runs the experiments concurrently).
type app struct {
	scale   string
	seed    int64
	workers int
	pcapDir string

	cfg quicksand.Scale // what -scale and -seed name

	// Observability handles. The zero value (both nil) is the fully
	// disabled state: every use below is nil-safe, so tests can build a
	// bare &app{...} and batch runs pay nothing unless a flag is set.
	log   *slog.Logger // -v progress records; nil = quiet
	trace *obs.Tracer  // -trace spans; nil = off

	worldOnce sync.Once
	world     *quicksand.World
	worldErr  error

	strmOnce sync.Once
	strm     *bgpsim.Stream
	strmErr  error
}

// step is one experiment: a name and a renderer writing its report to w.
type step struct {
	name string
	fn   func(w io.Writer) error
}

func (a *app) steps() []step {
	return []step{
		{"dataset", a.dataset},
		{"fig2left", a.fig2left},
		{"fig2right", a.fig2right},
		{"fig3left", a.fig3left},
		{"fig3right", a.fig3right},
		{"anonymity", a.anonymity},
		{"hijack", a.hijack},
		{"intercept", a.intercept},
		{"defend", a.defend},
		{"convergence", a.convergence},
		{"rotation", a.rotation},
		{"rov", a.rov},
		{"detect", a.detect},
		{"resilience", a.resilience},
		{"ablation", a.ablation},
	}
}

// newApp is an app over the configs -scale and -seed name.
func newApp(scale string, seed int64, workers int, pcapDir string) (*app, error) {
	cfg, err := quicksand.ScaleConfigs(scale, seed)
	if err != nil {
		return nil, err
	}
	return &app{scale: scale, seed: seed, workers: workers, pcapDir: pcapDir, cfg: cfg}, nil
}

func run(name string, o *expOpts) error {
	a, err := newApp(o.scale, o.seed, o.workers, o.pcapDir)
	if err != nil {
		return err
	}
	runID := obs.NewRunID()
	tr, traceDone, err := obs.OpenTrace(o.traceFile, os.Stderr, obs.String("run", runID))
	if err != nil {
		return err
	}
	if tr != nil || o.verbose {
		// The pool observer carries the trial spans and the -v progress.
		ob := &par.Observer{Trace: tr}
		a.trace = tr
		if o.verbose {
			a.log = obs.Component(obs.NewLogger(os.Stderr, slog.LevelInfo, false), "quicksand").
				With(slog.String("run", runID))
			ob.Progress = progressLogger(a.log)
		}
		par.SetObserver(ob)
		defer par.SetObserver(nil)
	}
	runErr := func() error {
		if name == "all" {
			return a.runAll()
		}
		for _, s := range a.steps() {
			if s.name == name {
				return a.runStep(s, os.Stdout)
			}
		}
		return fmt.Errorf("unknown experiment %q", name)
	}()
	if err := traceDone(); runErr == nil {
		runErr = err
	}
	return runErr
}

// info logs one structured progress record when -v is on.
func (a *app) info(msg string, args ...any) {
	if a.log != nil {
		a.log.Info(msg, args...)
	}
}

// runStep renders one experiment under a trace span and -v logs.
func (a *app) runStep(s step, w io.Writer) error {
	sp := a.trace.Start("experiment", obs.String("name", s.name))
	start := time.Now()
	a.info("experiment start", slog.String("experiment", s.name))
	err := s.fn(w)
	sp.End()
	a.info("experiment done", slog.String("experiment", s.name),
		slog.Duration("elapsed", time.Since(start).Round(time.Millisecond)),
		slog.Bool("ok", err == nil))
	return err
}

// progressLogger adapts the -v logger into a par.Observer progress
// callback: fan-out completions with a completion-rate ETA, throttled
// to roughly two records a second so large studies stay readable (the
// final completion always logs).
func progressLogger(log *slog.Logger) func(done, total int, elapsed time.Duration) {
	var last atomic.Int64
	return func(done, total int, elapsed time.Duration) {
		if done != total {
			now := time.Now().UnixNano()
			prev := last.Load()
			if now-prev < int64(500*time.Millisecond) || !last.CompareAndSwap(prev, now) {
				return
			}
		}
		var eta time.Duration
		if done > 0 {
			eta = time.Duration(float64(elapsed) * float64(total-done) / float64(done))
		}
		log.Info("trial progress",
			slog.Int("done", done), slog.Int("total", total),
			slog.Duration("elapsed", elapsed.Round(time.Millisecond)),
			slog.Duration("eta", eta.Round(time.Millisecond)))
	}
}

// runAll executes every experiment concurrently on the worker pool and
// prints the reports in the canonical order as they become ready. The
// world and stream are built first so every experiment sees identical
// shared state.
func (a *app) runAll() error {
	start := time.Now()
	if _, err := a.getStream(); err != nil { // builds the world too
		return err
	}
	steps := a.steps()
	bufs := make([]bytes.Buffer, len(steps))
	errs := make([]error, len(steps))
	done := make(chan int, len(steps))
	go func() {
		// Step-level errors are collected per step (not propagated via
		// the pool) so every independent report still completes.
		_ = par.ForEachWorker(a.workers, len(steps), func(_, i int) error {
			errs[i] = a.runStep(steps[i], &bufs[i])
			done <- i
			return nil
		})
		close(done)
	}()
	ready := make([]bool, len(steps))
	printed := 0
	for i := range done {
		ready[i] = true
		for printed < len(steps) && ready[printed] {
			os.Stdout.Write(bufs[printed].Bytes())
			if errs[printed] != nil {
				return fmt.Errorf("%s: %w", steps[printed].name, errs[printed])
			}
			fmt.Println()
			printed++
		}
	}
	fmt.Fprintf(os.Stderr, "# all experiments done in %.1fs (workers=%d)\n",
		time.Since(start).Seconds(), par.Workers(a.workers))
	return nil
}

func (a *app) getWorld() (*quicksand.World, error) {
	a.worldOnce.Do(func() {
		sp := a.trace.Start("build_world", obs.String("scale", a.scale))
		defer sp.End()
		fmt.Fprintf(os.Stderr, "# building %s world (seed %d)...\n", a.scale, a.seed)
		a.world, a.worldErr = quicksand.BuildWorld(a.cfg.World)
	})
	return a.world, a.worldErr
}

func (a *app) getStream() (*bgpsim.Stream, error) {
	a.strmOnce.Do(func() {
		w, err := a.getWorld()
		if err != nil {
			a.strmErr = err
			return
		}
		cfg := a.cfg.Month
		fmt.Fprintf(os.Stderr, "# simulating BGP churn over %v (%d sessions)...\n",
			cfg.Duration, sessions(cfg))
		start := time.Now()
		sp := a.trace.Start("simulate_stream", obs.Int("sessions", sessions(cfg)))
		st, err := w.SimulateMonth(cfg)
		sp.End()
		if err != nil {
			a.strmErr = err
			return
		}
		fmt.Fprintf(os.Stderr, "# stream: %d updates, %d resets (%.1fs)\n",
			len(st.Updates), len(st.Resets), time.Since(start).Seconds())
		a.strm = st
	})
	return a.strm, a.strmErr
}

func sessions(cfg bgpsim.Config) int {
	n := 0
	for _, c := range cfg.Collectors {
		n += c.Sessions
	}
	return n
}

func (a *app) dataset(out io.Writer) error {
	st, err := a.getStream()
	if err != nil {
		return err
	}
	w, err := a.getWorld()
	if err != nil {
		return err
	}
	ds, err := w.RunDataset(st)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "== E1: dataset statistics (paper §4 methodology) ==")
	fmt.Fprintf(out, "relays                    %6d   (paper: 4586)\n", ds.Relays)
	fmt.Fprintf(out, "guards                    %6d   (paper: 1918)\n", ds.Guards)
	fmt.Fprintf(out, "exits                     %6d   (paper: 891)\n", ds.Exits)
	fmt.Fprintf(out, "guard+exit                %6d   (paper: 442)\n", ds.Both)
	fmt.Fprintf(out, "Tor prefixes              %6d   (paper: 1251)\n", ds.TorPrefixes)
	fmt.Fprintf(out, "origin ASes               %6d   (paper: 650)\n", ds.OriginASes)
	fmt.Fprintf(out, "relays/prefix             median=%.0f p75=%.0f max=%.0f   (paper: 1 / 2 / 33)\n",
		ds.RelaysPerPrefix.Median, ds.RelaysPerPrefix.P75, ds.RelaysPerPrefix.Max)
	fmt.Fprintf(out, "prefix visibility         mean=%.0f%% max=%.0f%%   (paper: 40%% / 60%%)\n",
		100*ds.MeanPrefixVisibility, 100*ds.MaxPrefixVisibility)
	fmt.Fprintf(out, "Tor prefixes per session  median=%.0f max=%.0f   (paper: 438 / 1242)\n",
		ds.PrefixesPerSession.Median, ds.PrefixesPerSession.Max)
	return nil
}

func (a *app) fig2left(out io.Writer) error {
	w, err := a.getWorld()
	if err != nil {
		return err
	}
	curve, ranking, err := w.RunFig2Left()
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "== F2L: AS concentration of guard/exit relays (Figure 2, left) ==")
	fmt.Fprintln(out, "#ASes  %relays")
	for _, k := range []int{1, 2, 5, 10, 20, 50, 100, 200, 500} {
		if k > len(curve) {
			break
		}
		fmt.Fprintf(out, "%5d  %6.1f\n", k, curve[k-1].PercentRelays)
	}
	fmt.Fprintf(out, "top-5 hosting ASes: ")
	for i := 0; i < 5 && i < len(ranking); i++ {
		fmt.Fprintf(out, "%v(%d) ", ranking[i].ASN, ranking[i].Relays)
	}
	fmt.Fprintf(out, "\n(paper: 5 ASes host 20%% of guard/exit relays)\n")
	return nil
}

func (a *app) fig2right(out io.Writer) error {
	cfg := a.cfg.Download
	fmt.Fprintf(os.Stderr, "# simulating %d MB Tor download...\n", cfg.FileSize>>20)
	res, err := quicksand.RunFig2Right(cfg, time.Second)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "== F2R: asymmetric traffic analysis (Figure 2, right) ==")
	fmt.Fprintln(out, "t(s)   srv->exit  exit->srv  grd->cli  cli->grd   (cumulative MB)")
	s := res.Series
	for i := 0; i < len(s.ServerToExit.Cum); i += 2 {
		fmt.Fprintf(out, "%4d   %9.2f  %9.2f  %8.2f  %8.2f\n",
			i+1,
			s.ServerToExit.Cum[i]/(1<<20), s.ExitToServer.Cum[i]/(1<<20),
			s.GuardToClient.Cum[i]/(1<<20), s.ClientToGuard.Cum[i]/(1<<20))
	}
	fmt.Fprintln(out, "increment correlations (lag-aligned):")
	for _, k := range []string{"server_data~client_data", "server_data~server_acks",
		"server_data~client_acks", "server_acks~client_acks"} {
		fmt.Fprintf(out, "  %-26s %.3f\n", k, res.Correlations[k])
	}
	fmt.Fprintln(out, "(paper: the four series are nearly identical across time)")
	if a.pcapDir != "" {
		if err := os.MkdirAll(a.pcapDir, 0o755); err != nil {
			return err
		}
		// By file name, as ls lists them: the same order every run.
		for _, c := range []struct {
			name string
			recs []tcpsim.Record
		}{
			{"client_to_guard.pcap", res.Traces.ClientToGuard},
			{"exit_to_server.pcap", res.Traces.ExitToServer},
			{"guard_to_client.pcap", res.Traces.GuardToClient},
			{"server_to_exit.pcap", res.Traces.ServerToExit},
		} {
			path := filepath.Join(a.pcapDir, c.name)
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			if err := tcpsim.WritePcap(f, c.recs, cfg.SnapLen); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintf(out, "wrote %s (%d packets)\n", path, len(c.recs))
		}
	}
	return nil
}

func ccdfRows(out io.Writer, pts []stats.CCDFPoint, values []float64) {
	for _, v := range values {
		fmt.Fprintf(out, "%8.1f  %6.1f%%\n", v, stats.CCDFAt(pts, v))
	}
}

func (a *app) fig3left(out io.Writer) error {
	st, err := a.getStream()
	if err != nil {
		return err
	}
	w, err := a.getWorld()
	if err != nil {
		return err
	}
	res, err := w.RunFig3Left(st, analysis.FilterHeuristic)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "== F3L: Tor-prefix path changes vs session median (Figure 3, left) ==")
	fmt.Fprintln(out, "ratio     CCDF (% of samples >= ratio)")
	ccdfRows(out, res.CCDF, []float64{0.2, 0.5, 1, 2, 5, 10, 50, 100, 500, 1000})
	fmt.Fprintf(out, "samples: %d   ratio>1: %.0f%%   max ratio: %.0fx\n",
		len(res.Ratios), 100*res.FractionAboveMedian, res.MaxRatio)
	fmt.Fprintln(out, "(paper: >50% of samples above the median; tail beyond 2000x)")
	return nil
}

func (a *app) fig3right(out io.Writer) error {
	st, err := a.getStream()
	if err != nil {
		return err
	}
	w, err := a.getWorld()
	if err != nil {
		return err
	}
	res, err := w.RunFig3Right(st, 5*time.Minute, analysis.FilterHeuristic)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "== F3R: extra ASes seen >=5min per Tor prefix (Figure 3, right) ==")
	fmt.Fprintln(out, "extra     CCDF (% of prefixes >= extra)")
	ccdfRows(out, res.CCDF, []float64{1, 2, 3, 5, 10, 15, 20})
	fmt.Fprintf(out, "prefixes: %d   >=2 extra: %.0f%%   >5 extra: %.0f%%\n",
		len(res.Counts), 100*res.FractionAtLeast2, 100*res.FractionAbove5)
	fmt.Fprintln(out, "(paper: 50% gained >=2 extra ASes; 8% gained >5)")
	return nil
}

func (a *app) anonymity(out io.Writer) error {
	fmt.Fprintln(out, "== E2: anonymity degradation model (§3.1) ==")
	fs := []float64{0.01, 0.02, 0.05, 0.10}
	xs := []int{1, 2, 4, 6, 10, 15, 20}
	cells := quicksand.RunAnonymityModel(fs, xs, 3)
	fmt.Fprintln(out, "    f     x   P[1 guard]  P[3 guards]")
	for _, c := range cells {
		fmt.Fprintf(out, "%5.2f  %4d   %9.3f    %9.3f\n", c.F, c.X, c.Single, c.MultiGuard)
	}
	fmt.Fprintln(out, "(paper: P = 1-(1-f)^x, amplified to 1-(1-f)^(3x) by guard sets)")
	return nil
}

func (a *app) hijack(out io.Writer) error {
	w, err := a.getWorld()
	if err != nil {
		return err
	}
	cfg := quicksand.DefaultHijackStudyConfig()
	cfg.Seed = a.seed
	cfg.Workers = a.workers
	res, err := w.RunHijackStudy(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "== E3: prefix hijack study (§3.2) ==")
	fmt.Fprintf(out, "trials                         %d (attackers x top guard prefixes)\n", res.Trials)
	fmt.Fprintf(out, "capture fraction               mean=%.2f median=%.2f max=%.2f\n",
		res.CaptureFraction.Mean, res.CaptureFraction.Median, res.CaptureFraction.Max)
	fmt.Fprintf(out, "anonymity set (of clients)     mean=%.2f (fraction remaining)\n",
		res.AnonymitySetFraction.Mean)
	fmt.Fprintf(out, "more-specific hijack capture   %.2f (expected ~1.00)\n", res.MoreSpecificCapture)
	fmt.Fprintf(out, "top-prefix interception view   guards=%.1f%% exits=%.1f%% circuits=%.1f%%\n",
		100*res.Surveillance.GuardShare, 100*res.Surveillance.ExitShare,
		100*res.Surveillance.CircuitShare)
	return nil
}

func (a *app) intercept(out io.Writer) error {
	w, err := a.getWorld()
	if err != nil {
		return err
	}
	cfg := a.cfg.Intercept
	cfg.Workers = a.workers
	fmt.Fprintf(os.Stderr, "# running %d interception trials with correlation attacks...\n", cfg.Trials)
	res, err := w.RunInterceptStudy(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "== E4: prefix interception + asymmetric deanonymization (§3.2-3.3) ==")
	fmt.Fprintf(out, "interception trials        %d\n", res.Trials)
	fmt.Fprintf(out, "clean return path          %d (%.0f%%)\n",
		res.CleanPath, 100*float64(res.CleanPath)/float64(res.Trials))
	fmt.Fprintf(out, "effective (captured >0)    %d\n", res.Effective)
	fmt.Fprintf(out, "mean capture fraction      %.2f\n", res.MeanCaptureFraction)
	fmt.Fprintf(out, "deanonymization            %d/%d correct (%.0f%%)\n",
		res.DeanonCorrect, res.DeanonTrials, 100*res.DeanonAccuracy())
	fmt.Fprintln(out, "(paper: interception keeps connections alive; correlation of data vs")
	fmt.Fprintln(out, " ACK byte counts exactly deanonymizes the client)")
	return nil
}

func (a *app) defend(out io.Writer) error {
	st, err := a.getStream()
	if err != nil {
		return err
	}
	w, err := a.getWorld()
	if err != nil {
		return err
	}
	cfg := quicksand.DefaultDefenseStudyConfig()
	cfg.Seed = a.seed
	cfg.Workers = a.workers
	res, err := w.RunDefenseStudy(st, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "== E5: countermeasures (§5) ==")
	fmt.Fprintf(out, "vanilla circuits unsafe (static oracle)    %.1f%%\n", 100*res.UnsafeVanillaStatic)
	fmt.Fprintf(out, "vanilla circuits unsafe (dynamics oracle)  %.1f%%\n", 100*res.UnsafeVanillaDynamics)
	fmt.Fprintf(out, "AS-aware selection found safe circuit      %v\n", res.ASAwareFound)
	fmt.Fprintf(out, "guard AS-path length  short-pref=%.2f  vanilla=%.2f\n",
		res.ShortGuardMeanPathLen, res.VanillaGuardMeanPathLen)
	fmt.Fprintf(out, "monitor false-alarm rate                   %.4f per update\n", res.FalseAlarmRate)
	fmt.Fprintf(out, "injected hijacks detected                  %d/%d\n", res.HijacksDetected, res.HijacksInjected)
	fmt.Fprintf(out, "injected more-specifics detected           %d/%d\n", res.MoreSpecificsCaught, res.HijacksInjected)
	fmt.Fprintln(out, "(paper: aggressive detection — false positives acceptable, false negatives not)")
	return nil
}

func (a *app) convergence(out io.Writer) error {
	st, err := a.getStream()
	if err != nil {
		return err
	}
	w, err := a.getWorld()
	if err != nil {
		return err
	}
	res, err := w.RunConvergence(st, 5*time.Minute, analysis.FilterHeuristic)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "== E6 (extension): convergence transients (§3.1 discussion) ==")
	fmt.Fprintln(out, "transient ASes (<5min)   CCDF (% of samples >=)")
	ccdfRows(out, res.CCDF, []float64{1, 2, 3, 5, 10})
	fmt.Fprintf(out, "samples: %d   any transient observer: %.0f%%   mean: %.2f\n",
		len(res.Transients), 100*res.FractionWithAny, res.MeanTransient)
	fmt.Fprintln(out, "(these ASes cannot run timing analysis, but each learns the client")
	fmt.Fprintln(out, " talks to a Tor guard — membership alone can incriminate)")
	return nil
}

func (a *app) rotation(out io.Writer) error {
	st, err := a.getStream()
	if err != nil {
		return err
	}
	w, err := a.getWorld()
	if err != nil {
		return err
	}
	// Each month's extra ASes are drawn from the measured F3R
	// distribution of the simulated month.
	f3r, err := w.RunFig3Right(st, 5*time.Minute, analysis.FilterHeuristic)
	if err != nil {
		return err
	}
	cfg := a.cfg.Rotation
	cfg.Workers = a.workers
	cfg.EvolveMonthly = true
	cfg.ExtraASesPerMonth = f3r.ExtraSamples()
	res, err := w.RunRotationStudy(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "== E7 (extension): guard lifetime study (§2, f = 0.02) ==")
	fmt.Fprint(out, "month ")
	for _, c := range res.Curves {
		fmt.Fprintf(out, "  %2d-month", c.LifetimeMonths)
	}
	fmt.Fprintln(out)
	for m := 0; m < cfg.Months; m += 3 {
		fmt.Fprintf(out, "%5d ", m+1)
		for _, c := range res.Curves {
			fmt.Fprintf(out, "  %7.1f%%", 100*c.CompromisedFrac[m])
		}
		fmt.Fprintln(out)
	}
	fmt.Fprintln(out, "(fraction of clients with an AS-level compromise opportunity; longer")
	fmt.Fprintln(out, " lifetimes slow relay-driven exposure but churn degrades both)")
	return nil
}

func (a *app) rov(out io.Writer) error {
	w, err := a.getWorld()
	if err != nil {
		return err
	}
	cfg := quicksand.DefaultROVStudyConfig()
	cfg.Seed = a.seed
	cfg.Workers = a.workers
	res, err := w.RunROVStudy(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "== E8 (extension): route-origin validation deployment (conclusion) ==")
	fmt.Fprintln(out, "deployment  mean-capture  victim-protected")
	for _, p := range res.Points {
		fmt.Fprintf(out, "%9.0f%%  %11.1f%%  %15.0f%%\n",
			100*p.Deployment, 100*p.MeanCapture, 100*p.VictimProtected)
	}
	fmt.Fprintln(out, "(ROV at the highest-degree ASes first; exact-prefix hijacks of the top")
	fmt.Fprintln(out, " guard prefix shrink as validators shield their customer cones)")
	return nil
}

func (a *app) detect(out io.Writer) error {
	w, err := a.getWorld()
	if err != nil {
		return err
	}
	cfg := a.cfg.Detection
	fmt.Fprintf(os.Stderr, "# simulating churn with %d injected hijacks...\n", cfg.Attacks)
	res, err := w.RunLiveDetection(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "== E9 (extension): live in-stream attack detection (§5) ==")
	fmt.Fprintf(out, "hijacks injected        %d\n", res.Attacks)
	fmt.Fprintf(out, "visible at collectors   %d\n", res.Visible)
	fmt.Fprintf(out, "detected                %d (%.0f%% of visible)\n",
		res.Detected, pct(res.Detected, res.Visible))
	fmt.Fprintf(out, "mean detection latency  %v\n", res.MeanLatency.Round(time.Second))
	fmt.Fprintf(out, "false alarms            %d over %d observed updates\n",
		res.FalseAlarms, res.ObservedUpdates)
	fmt.Fprintln(out, "(the monitor sees attacks embedded in realistic churn; §5 requires")
	fmt.Fprintln(out, " no false negatives, and latency bounds the anonymity-set exposure)")
	return nil
}

func (a *app) resilience(out io.Writer) error {
	w, err := a.getWorld()
	if err != nil {
		return err
	}
	cfg := a.cfg.Resilience
	cfg.Workers = a.workers
	fmt.Fprintf(os.Stderr, "# running E10: resilience matrix, %d clients and %d trials per arm...\n",
		cfg.Clients, cfg.HijackTrials)
	res, err := w.RunResilienceStudy(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "== E10 (extension): Counter-RAPTOR resilience-weighted guard selection ==")
	fmt.Fprintf(out, "matrix            %d guard ASes x %d ASes from %d hijack tables\n",
		res.GuardASes, w.Topology.Len(), res.MatrixTables)
	if res.ErrorBound > 0 {
		fmt.Fprintf(out, "estimator         sampled, %d attackers/guard, 95%% bound ±%.3f\n", res.AttackersPerGuard, res.ErrorBound)
	} else {
		fmt.Fprintln(out, "estimator         exact, every attacker enumerated")
	}
	fmt.Fprintf(out, "%-22s %12s %12s %12s\n", "strategy", "capture", "empirical", "anon-set")
	for _, arm := range append([]quicksand.ResilienceArm{res.Vanilla, res.ShortPath}, res.Resilience...) {
		fmt.Fprintf(out, "%-22s %12.4f %12.4f %12.4f\n",
			arm.Name, arm.MeanCapture, arm.EmpiricalCapture, arm.AnonymitySetFraction)
	}
	fmt.Fprintf(out, "capture margin    %.4f (vanilla minus worst resilience arm; must be > 0)\n", res.CaptureMargin())
	fmt.Fprintln(out, "(Counter-RAPTOR: W(i) = a*R(i) + (1-a)*B(i); higher a trades bandwidth")
	fmt.Fprintln(out, " balance for hijack resilience, lowering the capture probability)")
	return nil
}

func pct(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

func (a *app) ablation(out io.Writer) error {
	st, err := a.getStream()
	if err != nil {
		return err
	}
	w, err := a.getWorld()
	if err != nil {
		return err
	}
	res, err := w.RunFilterAblation(st)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "== ablation: routing-table-transfer filtering (§4 methodology) ==")
	fmt.Fprintln(out, "filter        samples  median-changes  ratio>1  max-ratio")
	for _, r := range res.Rows {
		fmt.Fprintf(out, "%-12s  %7d  %14.1f  %6.1f%%  %8.0fx\n",
			r.Name, r.Samples, r.MedianChanges, 100*r.FractionAboveMedian, r.MaxRatio)
	}
	fmt.Fprintln(out, "(the burst heuristic — usable on real archives — must track ground truth)")
	return nil
}

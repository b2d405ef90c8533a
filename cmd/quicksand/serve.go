package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"net/netip"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"quicksand"
	"quicksand/internal/bgp"
	"quicksand/internal/bgpd"
	"quicksand/internal/fleet"
	"quicksand/internal/monitord"
	"quicksand/internal/obs"
)

// serveOpts are the parsed flags of the serve subcommand.
type serveOpts struct {
	scale     string
	seed      int64
	watchFile string
	fleet     int

	listenBGP  string
	listenHTTP string
	collectors string
	mrtFiles   string
	ribFile    string

	asn   uint
	bgpID string
	hold  time.Duration

	learn          int
	upstreamAlarms bool

	obs obs.Options
}

func serveFlags(fs *flag.FlagSet) *serveOpts {
	o := &serveOpts{}
	fs.StringVar(&o.scale, "scale", "small", "world scale for the default Tor-prefix watchlist: small or paper")
	fs.Int64Var(&o.seed, "seed", 1, "root seed for the default watchlist world")
	fs.StringVar(&o.watchFile, "watch", "", "watchlist file (\"prefix origin-AS\" per line) instead of the generated world's Tor prefixes")
	fs.IntVar(&o.fleet, "fleet", 0, "shard the watchlist across N in-process monitord instances behind one fleet router (0 = single daemon)")
	fs.StringVar(&o.listenBGP, "listen-bgp", "127.0.0.1:1790", "TCP address accepting inbound BGP sessions (empty disables)")
	fs.StringVar(&o.listenHTTP, "listen-http", "127.0.0.1:8790", "TCP address serving the HTTP API (empty disables)")
	fs.StringVar(&o.collectors, "collectors", "", "comma-separated BGP speakers to dial and keep sessions with")
	fs.StringVar(&o.mrtFiles, "mrt", "", "comma-separated BGP4MP update archives to ingest at startup, after -rib-snapshot")
	fs.StringVar(&o.ribFile, "rib-snapshot", "", "comma-separated TABLE_DUMP_V2 snapshots to seed the live RIB from at startup")
	fs.UintVar(&o.asn, "asn", 64512, "local AS number")
	fs.StringVar(&o.bgpID, "bgp-id", "198.51.100.1", "local BGP identifier (IPv4)")
	fs.DurationVar(&o.hold, "hold", 90*time.Second, "proposed BGP hold time (0 disables keepalives)")
	fs.IntVar(&o.learn, "learn", 0, "treat the first N updates as a clean learning window before arming upstream alarms")
	fs.BoolVar(&o.upstreamAlarms, "upstream-alarms", false, "arm new-upstream alarms immediately (no learning window)")
	o.obs.RegisterFlags(fs)
	return o
}

// parseWatchFile reads a watchlist: one "prefix origin-AS" pair per
// line, blank lines and #-comments ignored. The file says which origin
// is legitimate, so a prefix listed with two different origins is an
// error, not last-wins; an identical repeat is accepted.
func parseWatchFile(r io.Reader) (map[netip.Prefix]bgp.ASN, error) {
	watched := make(map[netip.Prefix]bgp.ASN)
	firstLine := make(map[netip.Prefix]int)
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 2 {
			return nil, fmt.Errorf("line %d: want \"prefix origin-AS\", got %q", line, text)
		}
		p, err := netip.ParsePrefix(fields[0])
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", line, err)
		}
		asn, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("line %d: origin %q: %v", line, fields[1], err)
		}
		p = p.Masked()
		if prev, ok := watched[p]; !ok {
			watched[p], firstLine[p] = bgp.ASN(asn), line
		} else if prev != bgp.ASN(asn) {
			return nil, fmt.Errorf("line %d: %v origin %v conflicts with %v on line %d",
				line, p, bgp.ASN(asn), prev, firstLine[p])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(watched) == 0 {
		return nil, fmt.Errorf("watchlist is empty")
	}
	return watched, nil
}

// watchlistFromWorld builds the default watchlist: the generated
// world's Tor (guard/exit-hosting) prefixes with their legitimate
// origins — the §5 monitoring target.
func watchlistFromWorld(scale string, seed int64) (map[netip.Prefix]bgp.ASN, error) {
	cfg := quicksand.SmallWorldConfig()
	if scale == "paper" {
		cfg = quicksand.DefaultWorldConfig()
	} else if scale != "small" {
		return nil, fmt.Errorf("unknown scale %q", scale)
	}
	cfg.Seed = seed
	cfg.Topology.Seed = seed
	cfg.Consensus.Seed = seed
	w, err := quicksand.BuildWorld(cfg)
	if err != nil {
		return nil, err
	}
	watched := make(map[netip.Prefix]bgp.ASN, len(w.TorPrefixes))
	for p := range w.TorPrefixes {
		watched[p] = w.Origins[p]
	}
	return watched, nil
}

// splitList splits a comma-separated flag value, dropping empties.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// serveConfig turns parsed flags into a daemon config.
func (o *serveOpts) serveConfig(logf func(string, ...any)) (monitord.Config, error) {
	var watched map[netip.Prefix]bgp.ASN
	var err error
	if o.watchFile != "" {
		f, err2 := os.Open(o.watchFile)
		if err2 != nil {
			return monitord.Config{}, err2
		}
		watched, err = parseWatchFile(f)
		f.Close()
		if err != nil {
			err = fmt.Errorf("%s: %w", o.watchFile, err)
		}
	} else {
		logf("serve: building %s world for the Tor-prefix watchlist (seed %d)...", o.scale, o.seed)
		watched, err = watchlistFromWorld(o.scale, o.seed)
	}
	if err != nil {
		return monitord.Config{}, err
	}
	bgpID, err := netip.ParseAddr(o.bgpID)
	if err != nil {
		return monitord.Config{}, fmt.Errorf("-bgp-id: %v", err)
	}
	return monitord.Config{
		Watched: watched,
		Speaker: bgpd.Config{
			ASN: bgp.ASN(o.asn), BGPID: bgpID, HoldTime: o.hold,
			// Always offered, not only above 65535: on a 2-octet session
			// every 4-octet origin reaches the monitor as AS_TRANS, so a
			// hijack by one is reported as AS23456 and a watched prefix
			// with a 4-octet origin alarms on its own announcements. A
			// peer that does not offer the capability still negotiates down.
			AS4: true,
		},
		ListenBGP:      o.listenBGP,
		ListenHTTP:     o.listenHTTP,
		Collectors:     splitList(o.collectors),
		LearnUpdates:   o.learn,
		UpstreamAlarms: o.upstreamAlarms,
		Seed:           o.seed,
		Logf:           logf,
	}, nil
}

// fleetConfig spreads a daemon config over -fleet shards behind a router:
// the router takes the daemon's place on the network and the registry,
// the shards keep the monitor settings.
func (o *serveOpts) fleetConfig(mc monitord.Config) fleet.Config {
	return fleet.Config{
		Watched: mc.Watched,
		Shards:  o.fleet,
		ShardConfig: monitord.Config{
			// -learn applies per shard: each shard's learning window spans
			// the first N updates routed to its own partition.
			LearnUpdates:   mc.LearnUpdates,
			UpstreamAlarms: mc.UpstreamAlarms,
		},
		Speaker:    mc.Speaker,
		ListenBGP:  mc.ListenBGP,
		ListenHTTP: mc.ListenHTTP,
		Collectors: mc.Collectors,
		Seed:       mc.Seed,
		Logf:       mc.Logf,
		Registry:   mc.Registry,
	}
}

// serveCmd runs the monitord daemon (or, with -fleet, the fleet router)
// until SIGINT/SIGTERM.
func serveCmd(args []string) error {
	// The handler goes in before anything else: building the watchlist
	// world, booting and ingesting archives can take seconds, and a
	// SIGTERM landing meanwhile must still end in an orderly Shutdown
	// instead of killing the process.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	return serve(args, sig, os.Stderr)
}

// serve boots the service the flags describe, waits for a signal on sig
// (which may already be pending), and shuts down in order.
func serve(args []string, sig <-chan os.Signal, logw io.Writer) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, `usage: quicksand serve [flags]

Long-running Tor-prefix route monitor: accepts BGP sessions, dials
route collectors, ingests MRT archives (BGP4MP updates and TABLE_DUMP_V2
tables), maintains a live RIB, and serves alerts and metrics over HTTP
(GET /alerts, /rib, /healthz, /metrics). It keeps no state across
restarts: peers resend their tables when their sessions re-establish,
and -rib-snapshot/-mrt preload the rest.

With -fleet N the watchlist is hash-sharded across N in-process
monitord instances behind one router that presents the same BGP and
HTTP surface (plus GET /anomalies from the Counter-RAPTOR detectors)
and takes every flag the single daemon does.

`)
		fs.PrintDefaults()
	}
	o := serveFlags(fs)
	fs.Parse(args)
	if fs.NArg() != 0 {
		return fmt.Errorf("serve takes no positional arguments")
	}

	rt, err := o.obs.Start("monitord", logw)
	if err != nil {
		return err
	}
	defer rt.Close()
	logf := func(format string, args ...any) { rt.Log.Info(fmt.Sprintf(format, args...)) }
	svc, err := o.boot(rt, logf)
	if err != nil {
		return err
	}

	s := <-sig
	logf("serve: %v received, shutting down...", s)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		return err
	}
	return rt.Close()
}

// boot starts the single daemon or, with -fleet, the fleet router, then
// preloads its archives. Either shares the runtime's registry, so its
// own families and the bgpd_* families appear on both its /metrics
// endpoint and the optional -metrics-addr server.
func (o *serveOpts) boot(rt *obs.Runtime, logf func(string, ...any)) (monitord.Front, error) {
	cfg, err := o.serveConfig(logf)
	if err != nil {
		return nil, err
	}
	cfg.Registry = rt.Reg
	cfg.Speaker.Metrics = bgpd.NewMetrics(rt.Reg)
	var svc monitord.Front
	what := "one daemon"
	if o.fleet > 0 {
		what = fmt.Sprintf("fleet router over %d shards", o.fleet)
		svc, err = fleet.New(o.fleetConfig(cfg))
	} else {
		svc, err = monitord.New(cfg)
	}
	if err != nil {
		return nil, err
	}
	logf("serve: %s, watching %d prefixes; BGP %s, HTTP %s",
		what, len(cfg.Watched), orDisabled(svc.BGPAddr()), orDisabled(svc.HTTPAddr()))
	if err := o.preload(svc, logf); err != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		svc.Shutdown(ctx)
		return nil, err
	}
	return svc, nil
}

// preload seeds a fresh service from -rib-snapshot, then -mrt.
func (o *serveOpts) preload(svc monitord.Front, logf func(string, ...any)) error {
	for _, path := range append(splitList(o.ribFile), splitList(o.mrtFiles)...) {
		if err := ingestFile(svc, path, logf); err != nil {
			return err
		}
	}
	return nil
}

// ingestFile replays one archive and waits for the pipeline to absorb
// it: a service that went live before then would answer /rib and /alerts
// from a partial table.
func ingestFile(svc monitord.Front, path string, logf func(string, ...any)) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	stats, err := svc.IngestMRT(f, path)
	if err != nil {
		return err
	}
	if !svc.WaitQuiesce(time.Minute) {
		return fmt.Errorf("%s: pipeline has not absorbed its %d updates after a minute", path, stats.Updates)
	}
	logf("serve: ingested %s: %d records, %d updates, %d peers (%d skipped, %d without AS_PATH)",
		path, stats.Records, stats.Updates, stats.Sessions, stats.Skipped, stats.NoASPath)
	return nil
}

func orDisabled(addr string) string {
	if addr == "" {
		return "disabled"
	}
	return addr
}

package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/netip"
	"os"
	"sort"
	"time"

	"quicksand/internal/bgp"
	"quicksand/internal/bgpd"
	"quicksand/internal/fleet"
	"quicksand/internal/loadgen"
	"quicksand/internal/monitord"
	"quicksand/internal/obs"
)

// loadtestOpts are the parsed flags of the loadtest subcommand.
type loadtestOpts struct {
	instances      int
	fleetShards    int
	sessions       int
	rate           float64
	duration       time.Duration
	tracerInterval time.Duration
	readBatch      int
	shards         int
	seed           int64
	minDetected    int
	json           bool
}

func loadtestFlags(fs *flag.FlagSet) *loadtestOpts {
	o := &loadtestOpts{}
	fs.IntVar(&o.instances, "instances", 1, "in-process monitord instances to run")
	fs.IntVar(&o.fleetShards, "fleet", 0, "front the load with one fleet router sharding the watchlist across N in-process monitord shards (replaces -instances)")
	fs.IntVar(&o.sessions, "sessions", 4, "concurrent load sessions per instance (plus one tracer session each)")
	fs.Float64Var(&o.rate, "rate", 0, "updates/sec cap per load session (0 = unthrottled)")
	fs.DurationVar(&o.duration, "duration", 3*time.Second, "load phase length")
	fs.DurationVar(&o.tracerInterval, "tracer-interval", 50*time.Millisecond, "spacing between tracer hijack injections")
	fs.IntVar(&o.readBatch, "read-batch", 256, "monitord per-session read batch size")
	fs.IntVar(&o.shards, "shards", 0, "monitord dispatcher shards (0 = default)")
	fs.Int64Var(&o.seed, "seed", 1, "background workload seed")
	fs.IntVar(&o.minDetected, "min-detected", 0, "fail unless at least this many tracers were detected")
	fs.BoolVar(&o.json, "json", false, "emit the BENCH_loadtest.json record instead of the report")
	return o
}

// loadtestReport is the machine-readable outcome of a load run;
// bench.sh writes it to results/BENCH_loadtest.json and gates on its
// throughput and latency fields.
type loadtestReport struct {
	Instances   int     `json:"instances"`
	Sessions    int     `json:"sessions_per_instance"`
	RateCap     float64 `json:"rate_cap_per_session"`
	DurationSec float64 `json:"duration_seconds"`
	Seed        int64   `json:"seed"`

	UpdatesSent   uint64  `json:"updates_sent"`
	UpdatesPerSec float64 `json:"updates_per_sec"`

	TracersInjected int `json:"tracers_injected"`
	TracersDetected int `json:"tracers_detected"`
	TracersLost     int `json:"tracers_lost"`

	// Injection-to-alert latency seen by the harness (inject over TCP,
	// poll /alerts over HTTP) — the client-visible end-to-end number.
	InjectP50 float64 `json:"inject_to_alert_p50_seconds"`
	InjectP95 float64 `json:"inject_to_alert_p95_seconds"`
	InjectP99 float64 `json:"inject_to_alert_p99_seconds"`

	// Daemon-internal latency quantiles estimated from the aggregated
	// monitord histograms (socket read to alert ring append); -1 when a
	// histogram had no observations.
	DetectP50 float64 `json:"detection_p50_seconds"`
	DetectP99 float64 `json:"detection_p99_seconds"`
	// Per-stage p99s from the aggregated monitord_stage_seconds vector.
	StageP99 map[string]float64 `json:"stage_p99_seconds"`

	// Fleet-mode extras (absent when -fleet is off): the router's shard
	// count and the Counter-RAPTOR detector totals over the merged
	// alert stream.
	FleetShards        int               `json:"fleet_shards,omitempty"`
	AnomaliesObserved  uint64            `json:"anomalies_observed,omitempty"`
	AnomaliesEscalated map[string]uint64 `json:"anomalies_escalated,omitempty"`
}

// loadtestCmd runs a fleet of in-process monitord instances under load,
// aggregates their /metrics, and reports throughput plus the
// hijack-to-alert latency distribution.
func loadtestCmd(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("loadtest", flag.ContinueOnError)
	o := loadtestFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if o.instances < 1 {
		return fmt.Errorf("need at least one instance")
	}
	if o.fleetShards > 0 && o.instances != 1 {
		return fmt.Errorf("-fleet replaces -instances; use one or the other")
	}
	rep, _, err := runLoadtest(o, os.Stderr)
	if err != nil {
		return err
	}
	if rep.TracersDetected < o.minDetected {
		return fmt.Errorf("only %d of %d tracers detected (floor %d)",
			rep.TracersDetected, rep.TracersInjected, o.minDetected)
	}
	if o.json {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	printLoadtestReport(out, rep)
	return nil
}

// runLoadtest boots the targets — -instances daemons, or one fleet
// router over -fleet in-process shards — drives the load, and
// aggregates metrics. Either kind of target is one BGP listener, one
// /alerts stream and one /metrics endpoint to the harness. The returned
// snapshot is the merged exposition of every target (for the smoke
// test's lint pass).
func runLoadtest(o *loadtestOpts, logw io.Writer) (*loadtestReport, *obs.Snapshot, error) {
	var targets []service
	defer func() {
		for _, t := range targets {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			t.Shutdown(ctx)
			cancel()
		}
	}()
	lc := loadgen.Config{
		Sessions:       o.sessions,
		Rate:           o.rate,
		Duration:       o.duration,
		TracerInterval: o.tracerInterval,
		Seed:           o.seed,
	}
	speaker := func(i int) bgpd.Config {
		// AS4: tracer origins cross 65535, and loadgen refuses 2-octet targets.
		return bgpd.Config{ASN: 64500, AS4: true, BGPID: netip.AddrFrom4([4]byte{198, 51, 100, byte(1 + i)})}
	}
	var router *fleet.Router
	if o.fleetShards > 0 {
		// The router owns the watchlist dispatch, so the unwatched
		// background load never reaches a shard — the property the
		// BENCH_fleet.json throughput gate measures.
		watched, tracerPrefixes, err := fleetWatchlist(o.fleetShards)
		if err != nil {
			return nil, nil, err
		}
		router, err = fleet.New(fleet.Config{
			Watched:     watched,
			Shards:      o.fleetShards,
			ShardConfig: monitord.Config{Shards: o.shards},
			Speaker:     speaker(0),
			ListenBGP:   "127.0.0.1:0",
			ListenHTTP:  "127.0.0.1:0",
			ReadBatch:   o.readBatch,
			Seed:        o.seed,
		})
		if err != nil {
			return nil, nil, err
		}
		targets = append(targets, router)
		lc.TracerPrefixes = tracerPrefixes
		fmt.Fprintf(logw, "# loadtest: fleet router over %d shard(s), %d session(s), %v, rate cap %v/s/session\n",
			o.fleetShards, o.sessions, o.duration, o.rate)
	} else {
		lc.WatchedPrefix = netip.MustParsePrefix("10.99.0.0/16")
		for i := 0; i < o.instances; i++ {
			d, err := monitord.New(monitord.Config{
				Watched:    map[netip.Prefix]bgp.ASN{lc.WatchedPrefix: 64496},
				Speaker:    speaker(i),
				ListenBGP:  "127.0.0.1:0",
				ListenHTTP: "127.0.0.1:0",
				Shards:     o.shards,
				ReadBatch:  o.readBatch,
			})
			if err != nil {
				return nil, nil, fmt.Errorf("instance %d: %w", i, err)
			}
			targets = append(targets, d)
		}
		fmt.Fprintf(logw, "# loadtest: %d instance(s) x %d session(s), %v, rate cap %v/s/session\n",
			o.instances, o.sessions, o.duration, o.rate)
	}
	var metricURLs []string
	for i, t := range targets {
		lc.Targets = append(lc.Targets, loadgen.Target{
			Name:    fmt.Sprintf("target-%d", i),
			BGPAddr: t.BGPAddr(),
			Alerts:  &loadgen.HTTPAlerts{Base: "http://" + t.HTTPAddr()},
		})
		metricURLs = append(metricURLs, "http://"+t.HTTPAddr()+"/metrics")
	}
	res, err := loadgen.Run(context.Background(), lc)
	if err != nil {
		return nil, nil, err
	}

	// Aggregate the expositions before shutdown: the merged snapshot is
	// what a fleet dashboard would see. (A router's /metrics already
	// merges its own fleet_* families with every shard's monitord_*.)
	snap, err := obs.ScrapeAll(metricURLs...)
	if err != nil {
		return nil, nil, fmt.Errorf("aggregate metrics: %w", err)
	}
	rep := newLoadtestReport(o, res, snap)
	if router != nil {
		rep.FleetShards = o.fleetShards
		_, observed, escalated := router.Anomalies()
		rep.AnomaliesObserved = observed
		rep.AnomaliesEscalated = make(map[string]uint64, len(escalated))
		for kind, n := range escalated {
			rep.AnomaliesEscalated[kind.String()] = n
		}
	}
	return rep, snap, nil
}

// newLoadtestReport assembles the common report fields from a load run
// and the aggregated metrics snapshot.
func newLoadtestReport(o *loadtestOpts, res *loadgen.Result, snap *obs.Snapshot) *loadtestReport {
	rep := &loadtestReport{
		Instances: o.instances, Sessions: o.sessions, RateCap: o.rate,
		DurationSec: res.Elapsed.Seconds(), Seed: o.seed,
		UpdatesSent: res.UpdatesSent, UpdatesPerSec: res.UpdatesPerSec,
		TracersInjected: res.TracersInjected, TracersDetected: res.TracersDetected,
		TracersLost: res.TracersLost,
		InjectP50:   res.P50, InjectP95: res.P95, InjectP99: res.P99,
		DetectP50: histQuantile(snap, "monitord_detection_seconds", 0.50, nil),
		DetectP99: histQuantile(snap, "monitord_detection_seconds", 0.99, nil),
		StageP99:  map[string]float64{},
	}
	for _, stage := range []string{"read", "dispatch", "apply", "monitor"} {
		rep.StageP99[stage] = histQuantile(snap, "monitord_stage_seconds", 0.99,
			map[string]string{"stage": stage})
	}
	return rep
}

// fleetWatchlist builds a watchlist that provably populates every one
// of n shards: it walks 10.x.y.0/24 candidates until the hash partition
// has given each shard at least one prefix. The per-shard prefixes
// double as the tracer targets, so tracer hijacks exercise every
// shard's pipeline while the background load (198.18.0.0/15, disjoint
// from the watchlist) is rejected at the router's dispatch stage.
func fleetWatchlist(n int) (map[netip.Prefix]bgp.ASN, []netip.Prefix, error) {
	watched := make(map[netip.Prefix]bgp.ASN, n)
	tracers := make([]netip.Prefix, n)
	filled := 0
	for i := 0; i < 1<<16 && filled < n; i++ {
		p := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0}), 24)
		s := fleet.OwnerOf(p, n)
		if tracers[s].IsValid() {
			continue
		}
		tracers[s] = p
		watched[p] = bgp.ASN(64496 + i)
		filled++
	}
	if filled < n {
		return nil, nil, fmt.Errorf("could not populate %d shards from 10.0.0.0/8", n)
	}
	return watched, tracers, nil
}

// histQuantile estimates a quantile from an aggregated histogram,
// returning -1 (valid JSON, unlike NaN) when it has no observations.
func histQuantile(snap *obs.Snapshot, family string, q float64, match map[string]string) float64 {
	v, err := snap.Quantile(family, q, match)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return -1
	}
	return v
}

func printLoadtestReport(out io.Writer, rep *loadtestReport) {
	fmt.Fprintln(out, "== loadtest: fleet load + hijack-to-alert latency ==")
	if rep.FleetShards > 0 {
		fmt.Fprintf(out, "fleet                  router over %d shard(s), %d load session(s) (+1 tracer)\n",
			rep.FleetShards, rep.Sessions)
	} else {
		fmt.Fprintf(out, "fleet                  %d instance(s) x %d load session(s) (+1 tracer each)\n",
			rep.Instances, rep.Sessions)
	}
	fmt.Fprintf(out, "load phase             %.2fs", rep.DurationSec)
	if rep.RateCap > 0 {
		fmt.Fprintf(out, "  (rate cap %.0f/s per session)", rep.RateCap)
	}
	fmt.Fprintln(out)
	fmt.Fprintf(out, "updates delivered      %d  (%.0f updates/s sustained)\n",
		rep.UpdatesSent, rep.UpdatesPerSec)
	fmt.Fprintf(out, "tracer hijacks         %d injected, %d detected, %d lost\n",
		rep.TracersInjected, rep.TracersDetected, rep.TracersLost)
	fmt.Fprintf(out, "inject-to-alert        p50=%s  p95=%s  p99=%s  (TCP inject -> HTTP /alerts poll)\n",
		fmtLatency(rep.InjectP50), fmtLatency(rep.InjectP95), fmtLatency(rep.InjectP99))
	fmt.Fprintf(out, "in-daemon detection    p50=%s  p99=%s  (socket read -> alert ring, aggregated histograms)\n",
		fmtLatency(rep.DetectP50), fmtLatency(rep.DetectP99))
	fmt.Fprintf(out, "stage p99              ")
	for _, stage := range []string{"read", "dispatch", "apply", "monitor"} {
		fmt.Fprintf(out, "%s=%s  ", stage, fmtLatency(rep.StageP99[stage]))
	}
	fmt.Fprintln(out)
	if rep.FleetShards > 0 {
		fmt.Fprintf(out, "anomaly detectors      %d merged alerts observed", rep.AnomaliesObserved)
		kinds := make([]string, 0, len(rep.AnomaliesEscalated))
		for k := range rep.AnomaliesEscalated {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		for _, k := range kinds {
			fmt.Fprintf(out, ", %s=%d", k, rep.AnomaliesEscalated[k])
		}
		fmt.Fprintln(out)
	}
	fmt.Fprintln(out, "(§5: detection latency bounds how long a hijack deanonymizes before")
	fmt.Fprintln(out, " clients can route around the implicated relays)")
}

// fmtLatency renders seconds human-readably; -1 means no observations.
func fmtLatency(s float64) string {
	if s < 0 {
		return "n/a"
	}
	return time.Duration(s * float64(time.Second)).Round(time.Microsecond).String()
}

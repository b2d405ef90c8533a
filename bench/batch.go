package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"regexp"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"syscall"
	"time"

	"quicksand"
	"quicksand/internal/analysis"
	"quicksand/internal/bgp"
	"quicksand/internal/bgpsim"
	"quicksand/internal/resilience"
	"quicksand/internal/topology"
)

// studyDigestSeed1 pins what the study workload computes at seed 1: the
// benchmark times the experiments, so it must notice when they start
// computing something else. Other seeds are checked pass against pass.
const studyDigestSeed1 = "0aa7df11429280d0"

var floatRE = regexp.MustCompile(`\d+\.\d+(?:e[-+]?\d+)?`)

// roundFloats rewrites every float in s to nine significant digits:
// analysis.Dataset sums visibility fractions in map order, so its last
// digits differ from run to run and must not reach the digest.
func roundFloats(s string) string {
	return floatRE.ReplaceAllStringFunc(s, func(m string) string {
		f, err := strconv.ParseFloat(m, 64)
		if err != nil {
			return m
		}
		return strconv.FormatFloat(f, 'g', 9, 64)
	})
}

// selfCPUSeconds is this process's user+system CPU time so far.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// resetPeakRSS starts the resident-set high-water mark afresh. Each pass
// is measured from its own reset and the median reported: a
// garbage-collected process's peak depends on when collections happen to
// fall, so the whole run's single peak is its unluckiest pass.
func resetPeakRSS() {
	runtime.GC()
	debug.FreeOSMemory()
	clearPeakRSS("self")
}

// call is one timed public call of a batch pass.
type call struct {
	layer string // per-layer metric the call's time is reported under
	scale float64
	fn    func() error
}

// batchRun collects the passes of a batch workload — each a list of timed
// public calls — and turns their timings into the shared end-to-end
// metrics.
type batchRun struct {
	rc      *runCtx
	res     *outcome
	passMS  []float64
	rssMB   []float64 // each pass's own resident-set peak
	cpuS    []float64 // each pass's CPU time
	traced  []float64
	plain   []float64
	byLayer map[string][]float64
	units   []int64 // each pass's units of work
}

// runCalls times each call in order under one pass span.
func (b *batchRun) runCalls(p int, calls []call) error {
	tr := b.rc.tr
	if p%2 == 0 {
		tr = nil // a traced run traces every other pass
	}
	trace := fmt.Sprintf("pass-%d", p)
	resetPeakRSS()
	cpu0 := selfCPUSeconds()
	start := time.Now()
	root := tr.begin(trace, 0, "pass", start)
	for _, c := range calls {
		t0 := time.Now()
		id := tr.begin(trace, root, c.layer, t0)
		if err := c.fn(); err != nil {
			return fmt.Errorf("%s: %w", c.layer, err)
		}
		t1 := time.Now()
		tr.end(id, t1, nil)
		b.byLayer[c.layer] = append(b.byLayer[c.layer], t1.Sub(t0).Seconds()*c.scale)
	}
	end := time.Now()
	tr.end(root, end, nil)
	rss, err := peakRSSMB("self")
	if err != nil {
		return err
	}
	b.rssMB = append(b.rssMB, rss)
	b.cpuS = append(b.cpuS, selfCPUSeconds()-cpu0)
	ms := end.Sub(start).Seconds() * 1e3
	b.passMS = append(b.passMS, ms)
	if tr != nil {
		b.traced = append(b.traced, ms)
	} else {
		b.plain = append(b.plain, ms)
	}
	return nil
}

// finish fills the end-to-end metrics and, when traced, each call's
// median under its layer name.
func (b *batchRun) finish(setupS float64) error {
	cpuUS := make([]float64, len(b.cpuS))
	for p := range cpuUS {
		cpuUS[p] = b.cpuS[p] * 1e6 / float64(b.units[p])
	}
	b.res.attempted = int64(len(b.passMS))
	b.res.e2e["setup_s"] = setupS
	b.res.e2e["latency_p50_ms"] = b.rc.quiet("latency_p50_ms", b.passMS)
	b.res.e2e["cpu_us_per_unit"] = b.rc.quiet("cpu_us_per_unit", cpuUS)
	b.res.e2e["peak_rss_mb"] = pct(b.rssMB, 50)
	if b.rc.tr == nil {
		return nil
	}
	for name, xs := range b.byLayer {
		b.res.layer[name] = pct(xs, 50)
	}
	tracingOverhead(b.res.layer, b.traced, b.plain)
	return nil
}

const (
	secondsScale = 1
	msScale      = 1e3
	usScale      = 1e6
)

// datasetSeed generates the simulated archives of the study and
// replay-attacks workloads and the graph of routes-73k. It is pinned: the
// simulator's event count, and with it every timing, swings more than
// twofold with its seed, which would bury any regression. --seed drives
// what is drawn on top of the dataset.
const datasetSeed = 1

// smallWorld builds the reduced world the simulated archives are made on.
// At paper scale a month short enough to repeat within one run has too
// little churn for Figure 3 (left) to be defined.
func smallWorld() (*quicksand.World, error) {
	cfg := quicksand.SmallWorldConfig()
	cfg.Seed, cfg.Topology.Seed, cfg.Consensus.Seed = datasetSeed, datasetSeed, datasetSeed
	return quicksand.BuildWorld(cfg)
}

func smallMonth() bgpsim.Config {
	cfg := quicksand.SmallMonthConfig()
	cfg.Seed = datasetSeed
	return cfg
}

// runStudy is the researcher's path: simulate the small world's churn
// month, then the dataset, Figure 3, hijack, interception and defense
// experiments, all through the root package's World API, the hijack and
// defense samples drawn from --seed. It touches no service layer.
func runStudy(rc *runCtx) (*outcome, error) {
	_, setupS, err := repeatSetup(
		func() (*quicksand.World, error) { return smallWorld() },
		func(*quicksand.World) error { return nil })
	if err != nil {
		return nil, err
	}
	workers := runtime.NumCPU()
	b := &batchRun{rc: rc, res: newOutcome(), byLayer: make(map[string][]float64)}
	var digests []string
	begin := time.Now()
	for p := 0; time.Since(begin) < rc.seconds; p++ {
		// A fresh world each pass: its route cache starts cold, as it does
		// for a researcher's one run.
		var w *quicksand.World
		var st *bgpsim.Stream
		var ds analysis.DatasetStats
		var f3l *quicksand.Fig3LeftResult
		var f3r *quicksand.Fig3RightResult
		var hj *quicksand.HijackStudyResult
		var ic *quicksand.InterceptStudyResult
		var df *quicksand.DefenseStudyResult
		hcfg, icfg, dcfg := quicksand.DefaultHijackStudyConfig(), quicksand.DefaultInterceptStudyConfig(), quicksand.DefaultDefenseStudyConfig()
		// The interception study stays on the dataset's seed: how many of its
		// interceptions take effect, and so a third of the pass, swings
		// 1.7-fold with it.
		hcfg.Seed, icfg.Seed, dcfg.Seed = rc.seed, datasetSeed, rc.seed
		hcfg.Workers, icfg.Workers, dcfg.Workers = workers, workers, workers
		err := b.runCalls(p, []call{
			{"quicksand.build_world_ms", msScale, func() (err error) { w, err = smallWorld(); return }},
			{"bgpsim.run_s", secondsScale, func() (err error) { st, err = w.SimulateMonth(smallMonth()); return }},
			{"analysis.dataset_ms", msScale, func() (err error) { ds, err = w.RunDataset(st); return }},
			{"analysis.fig3left_ms", msScale, func() (err error) { f3l, err = w.RunFig3Left(st, analysis.FilterHeuristic); return }},
			{"analysis.fig3right_ms", msScale, func() (err error) {
				f3r, err = w.RunFig3Right(st, 5*time.Minute, analysis.FilterHeuristic)
				return
			}},
			{"quicksand.hijack_ms", msScale, func() (err error) { hj, err = w.RunHijackStudy(hcfg); return }},
			{"quicksand.intercept_ms", msScale, func() (err error) { ic, err = w.RunInterceptStudy(icfg); return }},
			{"quicksand.defend_ms", msScale, func() (err error) { df, err = w.RunDefenseStudy(st, dcfg); return }},
		})
		if err != nil {
			return nil, err
		}
		b.units = append(b.units, int64(len(st.Updates)))
		sum := sha256.Sum256([]byte(roundFloats(fmt.Sprintf("%d %+v %d %v %v %d %v %v %+v %+v %+v",
			len(st.Updates), ds, len(f3l.Ratios), f3l.FractionAboveMedian, f3l.MaxRatio,
			len(f3r.Counts), f3r.FractionAtLeast2, f3r.FractionAbove5, *hj, *ic, *df))))
		digests = append(digests, fmt.Sprintf("%x", sum[:8]))
		if rc.tr != nil && p == 0 {
			us, err := computeRoutesUS(w)
			if err != nil {
				return nil, err
			}
			b.byLayer["topology.compute_routes_us"] = []float64{us}
		}
	}
	for p, d := range digests {
		if d != digests[0] {
			b.res.failed++
			b.res.failf("pass %d computed digest %s, pass 0 computed %s: the study is not deterministic", p, d, digests[0])
		}
	}
	if rc.seed == 1 && digests[0] != studyDigestSeed1 {
		b.res.failed++
		b.res.failf("study digest at seed 1 is %s, pinned %s", digests[0], studyDigestSeed1)
	}
	rc.logf("%d passes, %d simulated updates each, digest %s", len(digests), b.units[0], digests[0])
	if err := b.finish(setupS); err != nil {
		return nil, err
	}
	if rc.tr != nil {
		b.res.layer["bgpsim.updates_per_s"] = float64(b.units[0]) / b.res.layer["bgpsim.run_s"]
	}
	return b.res, nil
}

// computeRoutesUS times one destination's route table on w's topology,
// as the mean over fifty destinations, in microseconds.
func computeRoutesUS(w *quicksand.World) (float64, error) {
	const dests = 50
	asns := w.Topology.ASNs()
	start := time.Now()
	for i := 0; i < dests; i++ {
		if _, err := w.Topology.Routes(nil, topology.Origin{ASN: asns[i*len(asns)/dests]}); err != nil {
			return 0, err
		}
	}
	return time.Since(start).Seconds() * usScale / dests, nil
}

// powerLawSize is the AS count of the routes-73k graph; the smoke test
// shrinks it.
var powerLawSize = 73000

func powerLawConfig() topology.PowerLawConfig {
	cfg := topology.DefaultPowerLawConfig(powerLawSize)
	cfg.Seed = datasetSeed
	return cfg
}

// Sized so that a pass takes a little over a second and seven or more fit
// in one measured window.
const (
	routeDests      = 32
	routeFlaps      = 50
	matrixAttackers = 15
)

// routesInput is what routes-73k sets up: the Internet-scale graph and
// the paper world whose guards the resilience matrix covers.
type routesInput struct {
	g     *topology.Graph
	world *quicksand.World
}

// edge is one link of the graph, for flapping.
type edge struct {
	a, b bgp.ASN
	peer bool
}

func graphEdges(g *topology.Graph) []edge {
	var edges []edge
	for _, asn := range g.ASNs() {
		as := g.AS(asn)
		for _, c := range as.Customers() {
			edges = append(edges, edge{asn, c, false})
		}
		for _, p := range as.Peers() {
			if p > asn {
				edges = append(edges, edge{asn, p, true})
			}
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		return edges[i].a < edges[j].a || (edges[i].a == edges[j].a && edges[i].b < edges[j].b)
	})
	return edges
}

// sameTables reports whether two route sets over one graph agree on
// every route of every destination.
func sameTables(x, y *topology.RouteSet) bool {
	for d := range x.Dests() {
		tx, ty := x.TableAt(d), y.TableAt(d)
		if tx.Len() != ty.Len() {
			return false
		}
		for i := 0; i < tx.Len(); i++ {
			if tx.At(i) != ty.At(i) {
				return false
			}
		}
	}
	return true
}

// runRoutes is the scale path: route tables for 32 destinations over a
// 73K-AS power-law graph, kept current through 50 single-link flaps by
// delta recompilation, recomputed in full, then the all-pairs resilience
// matrix of the paper world's guard ASes.
func runRoutes(rc *runCtx) (*outcome, error) {
	in, setupS, err := repeatSetup(
		func() (*routesInput, error) {
			g, err := topology.GeneratePowerLaw(powerLawConfig())
			if err != nil {
				return nil, err
			}
			w, err := paperWorld(rc.seed)
			return &routesInput{g, w}, err
		},
		func(*routesInput) error { return nil })
	if err != nil {
		return nil, err
	}
	workers := runtime.NumCPU()
	rng := rand.New(rand.NewSource(datasetSeed))
	asns := in.g.ASNs()
	// The graph, the destinations and the flapped links are pinned like the
	// simulated archives: what a flap costs depends on whether the link
	// carries a transit AS's primary route (every table refixpoints) or a
	// stub's (none does), so fifty random links cost 0.1-0.8 s depending on
	// the draw. --seed chooses the paper world and the matrix's attackers.
	dests := make([]bgp.ASN, routeDests)
	for i, k := range rng.Perm(len(asns))[:routeDests] {
		dests[i] = asns[k]
	}
	edges := graphEdges(in.g)
	flaps := make([]edge, routeFlaps)
	for i := range flaps {
		flaps[i] = edges[rng.Intn(len(edges))]
	}
	mcfg := resilience.Config{Guards: in.world.GuardASes(), Attackers: matrixAttackers, Seed: rc.seed, Workers: workers}

	b := &batchRun{rc: rc, res: newOutcome(), byLayer: make(map[string][]float64)}
	var g *topology.Graph
	var rs *topology.RouteSet
	var refixed int
	begin := time.Now()
	for p := 0; time.Since(begin) < rc.seconds; p++ {
		var mx *resilience.Matrix
		refixed = 0
		// A clone has no compiled snapshot yet, so every pass compiles.
		g = in.g.Clone()
		err := b.runCalls(p, []call{
			{"topology.compile_ms", msScale, func() error { g.Compiled(); return nil }},
			{"topology.routeset_full_s", secondsScale, func() (err error) { rs, err = topology.NewRouteSet(g, dests, workers); return }},
			{"topology.delta_apply_mean_ms", msScale / (2 * routeFlaps), func() error {
				// Each flap takes a link down and brings it back, so the
				// graph ends the pass as it began.
				for _, e := range flaps {
					restore := topology.Mutation{Op: topology.MutAddLink, A: e.a, B: e.b}
					if e.peer {
						restore.Op = topology.MutAddPeering
					}
					for _, m := range []topology.Mutation{{Op: topology.MutRemoveLink, A: e.a, B: e.b}, restore} {
						st, err := rs.Apply(m)
						if err != nil {
							return err
						}
						refixed += st.Refixpointed
					}
				}
				return nil
			}},
			{"topology.recompute_all_s", secondsScale, func() error { return rs.RecomputeAll() }},
			{"resilience.matrix_s", secondsScale, func() (err error) { mx, err = resilience.Compute(in.world.Topology, mcfg, nil); return }},
		})
		if err != nil {
			return nil, err
		}
		tables := 2*routeDests + refixed + mx.Tables()
		b.units = append(b.units, int64(tables))
		if rc.tr != nil {
			b.byLayer["resilience.tables_per_s"] = append(b.byLayer["resilience.tables_per_s"],
				float64(mx.Tables())/b.byLayer["resilience.matrix_s"][p])
		}
	}

	// Output checks on the last pass's tables: everything is routed, and
	// fifty flaps of delta recompilation left what a fresh computation
	// gives.
	routed, total := 0, 0
	for d := range rs.Dests() {
		t := rs.TableAt(d)
		for i := 0; i < t.Len(); i++ {
			total++
			if t.At(i).Type != topology.RouteNone {
				routed++
			}
		}
	}
	if routed != total {
		b.res.failed++
		b.res.failf("routed fraction %d/%d is not 1", routed, total)
	}
	fresh, err := topology.NewRouteSet(g, dests, workers)
	if err != nil {
		return nil, err
	}
	if !sameTables(rs, fresh) {
		b.res.failed++
		b.res.failf("route tables after %d flaps differ from a fresh NewRouteSet", routeFlaps)
	}
	rc.logf("%d passes over %d ASes, %d links; %d tables per pass", len(b.passMS), g.Len(), g.Links(), b.units[0])
	if rc.tr != nil {
		start := time.Now()
		if _, err := topology.GeneratePowerLaw(powerLawConfig()); err != nil {
			return nil, err
		}
		b.byLayer["topology.generate_s"] = []float64{time.Since(start).Seconds()}
		b.byLayer["topology.bytes_per_as_table"] = []float64{float64(rs.TableAt(0).MemoryBytes()) / float64(g.Len())}
		us, err := computeRoutesUS(in.world)
		if err != nil {
			return nil, err
		}
		b.byLayer["topology.compute_routes_us"] = []float64{us}
	}
	if err := b.finish(setupS); err != nil {
		return nil, err
	}
	return b.res, nil
}

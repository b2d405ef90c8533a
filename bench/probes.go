package main

import (
	"context"
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"time"

	"quicksand/internal/bgp"
	"quicksand/internal/bgpd"
	"quicksand/internal/bgpsim"
	"quicksand/internal/defense"
	"quicksand/internal/fleet"
	"quicksand/internal/iptrie"
	"quicksand/internal/monitord"
)

// probeLayers times each service layer's public calls on the same seeded
// feed the workload just sent, in this process, with nothing else
// running. Every figure is per operation, so iteration counts are fixed.
func probeLayers(rc *runCtx, f *feed, width int, ly map[string]float64) error {
	span := func(name string, fn func() error) error { return rc.tr.timed("probes", 0, name, fn) }
	var all []bgpsim.UpdateEvent
	for _, evs := range f.events {
		all = append(all, evs...)
	}
	if err := span("bgp", func() error { return probeBGP(f, ly) }); err != nil {
		return err
	}
	if err := span("bgpd", func() error { return probeBGPD(f, ly) }); err != nil {
		return err
	}
	if err := span("iptrie", func() error { return probeTrie(f, all, ly) }); err != nil {
		return err
	}
	if err := span("defense", func() error { return probeDefense(f, all, width, ly) }); err != nil {
		return err
	}
	// Fleet shards are monitord daemons, so its probe runs either way.
	if err := span("monitord", func() error { return probeMonitord(f, all, ly) }); err != nil {
		return err
	}
	if width > 0 {
		return span("fleet", func() error { return probeFleet(f, all, width, ly) })
	}
	return nil
}

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// perOp times n operations and returns nanoseconds and allocations each.
func perOp(n int, fn func()) (ns, allocs float64) {
	m0 := mallocs()
	start := time.Now()
	fn()
	d := time.Since(start)
	return float64(d.Nanoseconds()) / float64(n), float64(mallocs()-m0) / float64(n)
}

func probeBGP(f *feed, ly map[string]float64) error {
	const reps = 8
	evs := f.events[0]
	var raw []byte
	var err error
	ly["bgp.encode_ns_per_update"], _ = perOp(reps*len(evs), func() {
		for r := 0; r < reps && err == nil; r++ {
			for i := range evs {
				u := bgp.Update{Withdrawn: []netip.Prefix{evs[i].Prefix}}
				if !evs[i].Withdraw() {
					u = announce(evs[i].Prefix, evs[i].Path)
				}
				if raw, err = u.AppendMessage(raw[:0], true); err != nil {
					return
				}
			}
		}
	})
	if err != nil {
		return err
	}
	var u bgp.Update
	n := 0
	ly["bgp.decode_ns_per_update"], ly["bgp.decode_allocs_per_update"] = perOp(reps*len(evs), func() {
		for r := 0; r < reps && err == nil; r++ {
			for _, burst := range f.bursts[0] {
				for len(burst) > 0 && err == nil {
					var msgLen int
					if _, msgLen, err = bgp.ParseHeader(burst); err == nil {
						err = bgp.ParseUpdateInto(burst[:msgLen], true, &u)
						burst = burst[msgLen:]
						n++
					}
				}
			}
		}
	})
	if err == nil && n != reps*len(evs) {
		err = fmt.Errorf("decode probe parsed %d of %d updates", n, reps*len(evs))
	}
	return err
}

// sessionPair establishes a BGP session with itself over loopback TCP.
func sessionPair() (tx, rx *bgpd.Session, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	defer ln.Close()
	type accepted struct {
		s   *bgpd.Session
		err error
	}
	done := make(chan accepted, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			done <- accepted{nil, err}
			return
		}
		s, err := bgpd.Establish(conn, bgpd.Config{ASN: childASN, BGPID: netip.AddrFrom4([4]byte{198, 51, 100, 1})})
		if err != nil {
			conn.Close()
		}
		done <- accepted{s, err}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, nil, err
	}
	tx, err = bgpd.Establish(conn, bgpd.Config{ASN: 64601, AS4: true, BGPID: netip.AddrFrom4([4]byte{203, 0, 113, 9})})
	acc := <-done
	if err == nil {
		err = acc.err
	}
	if err != nil {
		conn.Close()
		if acc.s != nil {
			acc.s.Close()
		}
		return nil, nil, err
	}
	return tx, acc.s, nil
}

// probeBGPD measures the session layer with nothing behind it: bursts
// through SendRaw and RecvUpdateBatch across a loopback pair, then single
// tracers one at a time for the wire's one-way latency.
func probeBGPD(f *feed, ly map[string]float64) error {
	tx, rx, err := sessionPair()
	if err != nil {
		return err
	}
	defer tx.Close()
	defer rx.Close()

	const reps = 4
	pool := f.bursts[0]
	total := reps * len(pool) * burstSize
	sendErr := make(chan error, 1)
	batch := make([]bgp.Update, 64)
	batches := 0
	ns, _ := perOp(total, func() {
		go func() {
			for r := 0; r < reps; r++ {
				for _, b := range pool {
					if err := tx.SendRaw(b, burstSize); err != nil {
						tx.Close() // fails the receiver's read, which is waiting for the rest
						sendErr <- err
						return
					}
				}
			}
			sendErr <- nil
		}()
		for got := 0; got < total && err == nil; batches++ {
			var n int
			n, err = rx.RecvUpdateBatch(batch)
			got += n
		}
	})
	if serr := <-sendErr; err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	ly["bgpd.loopback_ns_per_update"] = ns
	ly["bgpd.recv_batch_mean"] = float64(total) / float64(batches)

	const pings = 300
	arrived := make(chan time.Time, pings) // never blocks the receiver
	recvErr := make(chan error, 1)
	go func() {
		for i := 0; i < pings; i++ {
			if _, err := rx.RecvUpdateBatch(batch); err != nil {
				recvErr <- err
				return
			}
			arrived <- time.Now()
		}
	}()
	oneway := make([]float64, 0, pings)
	var buf []byte
	for i := 0; i < pings; i++ {
		if buf, err = f.appendTracer(buf[:0], i); err != nil {
			return err // the deferred Close ends the receiver
		}
		start := time.Now()
		if err := tx.SendRaw(buf, 1); err != nil {
			return err
		}
		select {
		case at := <-arrived:
			oneway = append(oneway, at.Sub(start).Seconds()*1e6)
		case err := <-recvErr:
			return fmt.Errorf("loopback probe receiver: %w", err)
		}
	}
	ly["bgpd.loopback_oneway_p50_us"] = pct(oneway, 50)
	return nil
}

func probeTrie(f *feed, all []bgpsim.UpdateEvent, ly map[string]float64) error {
	const builds = 20
	var t iptrie.Trie[bgp.ASN]
	var err error
	ly["iptrie.insert_ns"], _ = perOp(builds*len(f.tor), func() {
		for b := 0; b < builds && err == nil; b++ {
			t = iptrie.Trie[bgp.ASN]{}
			for _, p := range f.tor {
				if _, err = t.Insert(p, f.watch[p]); err != nil {
					return
				}
			}
		}
	})
	if err != nil {
		return err
	}
	const reps = 8
	hits := 0
	ly["iptrie.lpm_ns_per_lookup"], _ = perOp(reps*len(all), func() {
		for r := 0; r < reps; r++ {
			for i := range all {
				if _, _, ok := t.LongestMatch(all[i].Prefix.Addr()); ok {
					hits++
				}
			}
		}
	})
	if hits == 0 {
		return fmt.Errorf("trie probe matched nothing")
	}
	return nil
}

func probeDefense(f *feed, all []bgpsim.UpdateEvent, width int, ly map[string]float64) error {
	mon, err := defense.NewMonitor(f.watch)
	if err != nil {
		return err
	}
	const reps = 8
	alerts := 0
	ly["defense.observe_ns_per_update"], _ = perOp(reps*len(all), func() {
		for r := 0; r < reps; r++ {
			for i := range all {
				alerts += len(mon.Observe(&all[i]))
			}
		}
	})
	if alerts != 0 {
		return fmt.Errorf("batch monitor raised %d alerts on the legitimate feed", alerts)
	}
	if width == 0 {
		return nil // only the fleet router runs the anomaly detectors
	}
	const n = 50000
	det := defense.NewAnomalyDetector(defense.AnomalyConfig{})
	base := time.Unix(1400000000, 0)
	ly["defense.anomaly_ns_per_alert"], _ = perOp(n, func() {
		for i := 0; i < n; i++ {
			det.Observe(defense.Alert{
				Time: base.Add(time.Duration(i) * tracerInterval), Prefix: f.tracerPrefix(i),
				Kind: defense.AlertOriginChange, Observed: tracerBase + bgp.ASN(i),
			})
		}
	})
	return nil
}

// ingester is what monitord.Daemon and fleet.Router share.
type ingester interface {
	RegisterSource(name string, peer bgp.ASN) int
	Ingest(session int, t time.Time, prefix netip.Prefix, path []bgp.ASN) error
	WaitQuiesce(timeout time.Duration) bool
	Alerts(cursor uint64, max int) ([]monitord.SeqAlert, uint64, uint64)
}

// ingestAll feeds evs reps times and waits for the pipeline to go idle,
// returning per-update cost.
func ingestAll(d ingester, src int, evs []bgpsim.UpdateEvent, reps int) (ns, allocs float64, err error) {
	now := time.Now()
	ns, allocs = perOp(reps*len(evs), func() {
		for r := 0; r < reps && err == nil; r++ {
			for i := range evs {
				var path []bgp.ASN // nil withdraws
				if !evs[i].Withdraw() {
					path = evs[i].Path
				}
				if err = d.Ingest(src, now, evs[i].Prefix, path); err != nil {
					return
				}
			}
		}
		if err == nil && !d.WaitQuiesce(30*time.Second) {
			err = fmt.Errorf("pipeline did not quiesce")
		}
	})
	return ns, allocs, err
}

// hijackToAlerts times Ingest(hijack) until Alerts() returns it, on an
// idle pipeline, in microseconds.
func hijackToAlerts(d ingester, src int, f *feed, n int) ([]float64, error) {
	_, cursor, _ := d.Alerts(0, 0)
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := d.Ingest(src, start, f.tracerPrefix(i), f.tracerPath(i)); err != nil {
			return nil, err
		}
		for {
			alerts, next, _ := d.Alerts(cursor, 0)
			if cursor = next; len(alerts) > 0 {
				break
			}
			if time.Since(start) > 5*time.Second {
				return nil, fmt.Errorf("hijack %d raised no alert", i)
			}
			runtime.Gosched()
		}
		out = append(out, time.Since(start).Seconds()*1e6)
	}
	return out, nil
}

func probeMonitord(f *feed, all []bgpsim.UpdateEvent, ly map[string]float64) error {
	d, err := monitord.New(monitord.Config{Watched: f.watch})
	if err != nil {
		return err
	}
	defer d.Shutdown(context.Background())
	src := d.RegisterSource("probe", f.vantage[0])
	ns, allocs, err := ingestAll(d, src, all, 4)
	if err != nil {
		return err
	}
	ly["monitord.ingest_ns_per_update"], ly["monitord.ingest_allocs_per_update"] = ns, allocs
	lat, err := hijackToAlerts(d, src, f, 300)
	if err != nil {
		return err
	}
	ly["monitord.ingest_to_ring_p50_us"], ly["monitord.ingest_to_ring_p99_us"] = pct(lat, 50), pct(lat, 99)
	const calls = 100000
	_, head, _ := d.Alerts(0, 0)
	ly["monitord.alerts_call_ns"], _ = perOp(calls, func() {
		for i := 0; i < calls; i++ {
			d.Alerts(head, 0)
		}
	})
	return nil
}

func probeFleet(f *feed, all []bgpsim.UpdateEvent, width int, ly map[string]float64) error {
	r, err := fleet.New(fleet.Config{Watched: f.watch, Shards: width})
	if err != nil {
		return err
	}
	defer r.Shutdown(context.Background())
	src := r.RegisterSource("probe", f.vantage[0])
	var watched, unwatched []bgpsim.UpdateEvent
	for _, ev := range all {
		if _, ok := f.watch[ev.Prefix]; ok {
			watched = append(watched, ev)
		} else {
			unwatched = append(unwatched, ev)
		}
	}
	if ly["fleet.route_watched_ns_per_update"], _, err = ingestAll(r, src, watched, 8); err != nil {
		return err
	}
	if ly["fleet.route_unwatched_ns_per_update"], _, err = ingestAll(r, src, unwatched, 8); err != nil {
		return err
	}
	lat, err := hijackToAlerts(r, src, f, 300)
	if err != nil {
		return err
	}
	ly["fleet.ingest_to_merged_p50_ms"], ly["fleet.ingest_to_merged_p99_ms"] = pct(lat, 50)/1e3, pct(lat, 99)/1e3
	return nil
}

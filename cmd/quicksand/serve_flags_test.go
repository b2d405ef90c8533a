package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"net"
	"net/netip"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"quicksand/internal/bgp"
	"quicksand/internal/bgpd"
	"quicksand/internal/monitord"
	"quicksand/internal/mrt"
	"quicksand/internal/obs"
)

// serveListenRE is how a supervisor (bench/child.go among them) learns
// where serve listens: the one log line naming both addresses.
var serveListenRE = regexp.MustCompile(`BGP (\S+), HTTP ([0-9.]+:[0-9]+)`)

// runServe runs serve(args) on loopback until the test ends — when it is
// sent SIGTERM and must return nil — and returns its HTTP address as read
// from its log.
func runServe(t *testing.T, args ...string) (httpAddr string) {
	t.Helper()
	logr, logw := io.Pipe()
	sig := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() {
		err := serve(append([]string{"-listen-bgp", "127.0.0.1:0", "-listen-http", "127.0.0.1:0"}, args...), sig, logw)
		logw.Close()
		done <- err
	}()
	var logs bytes.Buffer // the scanner's until scanned closes
	scanned := make(chan struct{})
	addr := make(chan string, 1)
	go func() {
		defer close(scanned)
		sc := bufio.NewScanner(logr)
		for sc.Scan() {
			logs.WriteString(sc.Text() + "\n")
			if m := serveListenRE.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case addr <- m[2]:
				default:
				}
			}
		}
	}()
	stop := func() error {
		sig <- syscall.SIGTERM
		err := <-done
		<-scanned
		return err
	}
	select {
	case httpAddr = <-addr:
	case <-scanned: // serve returned, closing its log, without ever listening
		t.Fatalf("serve exited before listening: %v\n%s", <-done, logs.String())
	case <-time.After(10 * time.Second):
		t.Fatalf("serve never logged its listeners (exit: %v)\n%s", stop(), logs.String())
	}
	t.Cleanup(func() {
		if err := stop(); err != nil {
			t.Errorf("serve: %v\n%s", err, logs.String())
		}
	})
	return httpAddr
}

// waitAlerts polls /alerts until n alerts are served or five seconds
// pass, and renders what arrived as sorted "kind prefix observed" lines.
func waitAlerts(t *testing.T, httpAddr string, n int) []string {
	t.Helper()
	poller := &monitord.HTTPAlerts{Base: "http://" + httpAddr}
	var alerts []monitord.SeqAlert
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if alerts, _, _ = poller.Alerts(0, 0); len(alerts) >= n {
			break
		}
	}
	var got []string
	for _, a := range alerts {
		got = append(got, fmt.Sprintf("%v %v %v", a.Kind, a.Prefix, a.Observed))
	}
	slices.Sort(got)
	return got
}

func pathAttrs(path ...bgp.ASN) bgp.PathAttributes {
	return bgp.PathAttributes{
		HasOrigin: true, Origin: bgp.OriginIGP,
		HasASPath: true, ASPath: bgp.Sequence(path...),
		NextHop: netip.MustParseAddr("192.0.2.1"),
	}
}

// TestServeInputsBothFronts boots serve with every input flag, as a
// single daemon and as a fleet, and requires the same alerts from both:
// archives preloaded from -rib-snapshot and -mrt under -upstream-alarms,
// and a collector dialed per -collectors that sees the -asn, -bgp-id and
// -hold it was promised and whose first -learn updates train silently.
func TestServeInputsBothFronts(t *testing.T) {
	dir := t.TempDir()
	watch := filepath.Join(dir, "watch.txt")
	if err := os.WriteFile(watch, []byte("10.0.0.0/16 64496\n10.1.0.0/16 64497\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	peerIP := netip.MustParseAddr("192.0.2.1")
	ts := time.Unix(1400000000, 0)
	writeArchive := func(name string, fill func(w *mrt.Writer) error) string {
		t.Helper()
		var buf bytes.Buffer
		if err := fill(mrt.NewWriter(&buf)); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	rib := writeArchive("rib.mrt", func(w *mrt.Writer) error {
		if err := w.WritePeerIndexTable(ts, &mrt.PeerIndexTable{
			CollectorBGPID: netip.MustParseAddr("203.0.113.9"), ViewName: "seed",
			Peers: []mrt.Peer{{BGPID: peerIP, IP: peerIP, AS: 64501}},
		}); err != nil {
			return err
		}
		for i, e := range []struct {
			prefix string
			attrs  bgp.PathAttributes
		}{
			{"10.0.0.0/16", pathAttrs(64501, 64500, 64496)}, // legitimate, but no upstream learned yet
			{"10.1.0.0/16", pathAttrs(64501, 666)},          // seeded from a poisoned table
		} {
			if err := w.WriteRIB(ts, &mrt.RIBIPv4Unicast{
				Sequence: uint32(i), Prefix: netip.MustParsePrefix(e.prefix),
				Entries: []mrt.RIBEntry{{PeerIndex: 0, OriginatedTime: ts, Attrs: e.attrs}},
			}); err != nil {
				return err
			}
		}
		return nil
	})
	updates := writeArchive("updates.mrt", func(w *mrt.Writer) error {
		u := bgp.Update{NLRI: []netip.Prefix{netip.MustParsePrefix("10.0.9.0/24")}, Attrs: pathAttrs(64501, 667)}
		raw, err := u.Marshal(true)
		if err != nil {
			return err
		}
		return w.WriteMessage(ts.Add(time.Minute), &mrt.BGP4MPMessage{
			PeerAS: 64501, LocalAS: 12654, AS4: true,
			PeerIP: peerIP, LocalIP: netip.MustParseAddr("198.51.100.1"), Data: raw,
		})
	})

	for name, fleet := range map[string][]string{"daemon": nil, "fleet": {"-fleet", "2"}} {
		t.Run("archives/"+name, func(t *testing.T) {
			httpAddr := runServe(t, append(fleet, "-watch", watch,
				"-rib-snapshot", rib, "-mrt", updates, "-upstream-alarms")...)
			want := []string{
				"more-specific 10.0.9.0/24 AS667",
				"new-upstream 10.0.0.0/16 AS64500",
				"origin-change 10.1.0.0/16 AS666",
			}
			if got := waitAlerts(t, httpAddr, len(want)); !slices.Equal(got, want) {
				t.Errorf("alerts = %q, want %q", got, want)
			}
		})
		t.Run("collector/"+name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			httpAddr := runServe(t, append(fleet, "-watch", watch, "-collectors", ln.Addr().String(),
				"-asn", "64999", "-bgp-id", "198.51.100.7", "-hold", "3s", "-learn", "2")...)
			conn, err := ln.Accept()
			if err != nil {
				t.Fatal(err)
			}
			sess, err := bgpd.Establish(conn, bgpd.Config{ASN: 64501, BGPID: peerIP, HoldTime: 90 * time.Second, AS4: true})
			if err != nil {
				conn.Close()
				t.Fatal(err)
			}
			t.Cleanup(func() { sess.Close() })
			if sess.PeerAS() != 64999 || sess.PeerID() != netip.MustParseAddr("198.51.100.7") || sess.HoldTime() != 3*time.Second {
				t.Errorf("serve dialed as %v id %v hold %v; want the -asn, -bgp-id and -hold it was given",
					sess.PeerAS(), sess.PeerID(), sess.HoldTime())
			}
			for _, path := range [][]bgp.ASN{
				{64501, 64500, 64496}, // learned
				{64501, 64505, 64496}, // learned: the window closes, upstream alarms arm
				{64501, 64510, 64496}, // a third upstream: alarms
				{64501, 666},          // hijack
			} {
				err := sess.SendUpdate(&bgp.Update{NLRI: []netip.Prefix{netip.MustParsePrefix("10.0.0.0/16")}, Attrs: pathAttrs(path...)})
				if err != nil {
					t.Fatal(err)
				}
			}
			want := []string{"new-upstream 10.0.0.0/16 AS64510", "origin-change 10.0.0.0/16 AS666"}
			if got := waitAlerts(t, httpAddr, len(want)); !slices.Equal(got, want) {
				t.Errorf("alerts = %q, want %q", got, want)
			}
		})
	}
}

// TestServeDefaultWatchlist boots serve without -watch: the watchlist is
// the Tor prefixes of the world -scale and -seed name.
func TestServeDefaultWatchlist(t *testing.T) {
	sig := make(chan os.Signal, 1)
	sig <- syscall.SIGTERM
	var logs bytes.Buffer
	if err := serve([]string{"-scale", "small", "-seed", "2", "-listen-bgp", "", "-listen-http", ""}, sig, &logs); err != nil {
		t.Fatalf("serve: %v\n%s", err, logs.String())
	}
	want, err := watchlistFromWorld("small", 2)
	if err != nil {
		t.Fatal(err)
	}
	other, err := watchlistFromWorld("small", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 || fmt.Sprint(want) == fmt.Sprint(other) {
		t.Fatalf("seeds 2 and 3 give the same %d-prefix watchlist", len(want))
	}
	for _, line := range []string{
		"building small world for the Tor-prefix watchlist (seed 2)",
		fmt.Sprintf("watching %d prefixes; BGP disabled, HTTP disabled", len(want)),
	} {
		if !strings.Contains(logs.String(), line) {
			t.Errorf("log lacks %q:\n%s", line, logs.String())
		}
	}
	if _, err := watchlistFromWorld("huge", 1); err == nil {
		t.Error("-scale huge accepted")
	}
}

// stalledFront is a front whose pipeline never goes idle.
type stalledFront struct{ monitord.Front }

func (stalledFront) IngestMRT(io.Reader, string) (*monitord.MRTStats, error) {
	return &monitord.MRTStats{Records: 3, Updates: 3, Sessions: 1}, nil
}
func (stalledFront) WaitQuiesce(time.Duration) bool { return false }

// TestIngestFileStalledPipeline is the regression test for a preload that
// reported success on a partial table: serve discarded WaitQuiesce's
// verdict, logged "ingested" and went live. A pipeline that has not
// drained is an error naming the file.
func TestIngestFileStalledPipeline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "updates.mrt")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	var logged []string
	logf := func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) }
	o := &serveOpts{mrtFiles: path}
	if err := o.preload(stalledFront{}, logf); err == nil || !strings.Contains(err.Error(), path) {
		t.Errorf("preload on a stalled pipeline = %v, want an error naming %s", err, path)
	}
	if len(logged) != 0 {
		t.Errorf("preload on a stalled pipeline logged %q", logged)
	}
}

// TestServeFlagsExercised holds every serve flag (the obs flags have
// their own tests) to a named user: a test in this package whose body
// passes the flag, or a BENCHMARK.json workload whose driver does. A flag
// nobody passes is a flag whose code nothing runs; it fails here until it
// gets a user or goes.
func TestServeFlagsExercised(t *testing.T) {
	const inputs, pending = "TestServeInputsBothFronts", "TestServeSignalBeforeBoot"
	users := map[string]string{ // flag -> test name, or "workload:<name>"
		"scale":           "TestServeDefaultWatchlist",
		"seed":            "TestServeDefaultWatchlist",
		"watch":           "workload:serve-steady",
		"fleet":           "workload:fleet-steady",
		"listen-bgp":      pending,
		"listen-http":     pending,
		"asn":             "workload:serve-saturate",
		"collectors":      inputs,
		"mrt":             inputs,
		"rib-snapshot":    inputs,
		"bgp-id":          inputs,
		"hold":            inputs,
		"learn":           inputs,
		"upstream-alarms": inputs,
	}

	// Every string literal of every test function in this package.
	literals := map[string]map[string]bool{}
	files, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, file := range files {
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || !strings.HasPrefix(fn.Name.Name, "Test") {
				continue
			}
			lits := map[string]bool{}
			ast.Inspect(fn, func(n ast.Node) bool {
				if bl, ok := n.(*ast.BasicLit); ok && bl.Kind == token.STRING {
					if s, err := strconv.Unquote(bl.Value); err == nil {
						lits[s] = true
					}
				}
				return true
			})
			literals[fn.Name.Name] = lits
		}
	}
	// The benchmark's workloads, and its driver's source.
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	var driver strings.Builder
	sources, _ := filepath.Glob(filepath.Join("..", "..", "bench", "*.go"))
	for _, src := range sources {
		b, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		driver.Write(b)
	}

	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	serveFlags(fs)
	obsFlags := flag.NewFlagSet("obs", flag.ContinueOnError)
	(&obs.Options{}).RegisterFlags(obsFlags)
	seen := 0
	fs.VisitAll(func(f *flag.Flag) {
		if obsFlags.Lookup(f.Name) != nil {
			return
		}
		seen++
		user, ok := users[f.Name]
		switch workload, isWorkload := strings.CutPrefix(user, "workload:"); {
		case !ok:
			t.Errorf("-%s: no test or workload is named as passing it", f.Name)
		case isWorkload:
			if !slices.ContainsFunc(bench.Workloads, func(w struct{ Name string }) bool { return w.Name == workload }) {
				t.Errorf("-%s: BENCHMARK.json has no workload %q", f.Name, workload)
			}
			if !strings.Contains(driver.String(), `"-`+f.Name+`"`) {
				t.Errorf("-%s: nothing under bench/ passes it", f.Name)
			}
		case literals[user] == nil:
			t.Errorf("-%s: its user %s does not exist", f.Name, user)
		case !literals[user]["-"+f.Name]:
			t.Errorf("-%s: %s never passes it", f.Name, user)
		}
	})
	if seen != len(users) {
		t.Errorf("the table names %d flags, serve has %d: drop the rows of flags that are gone", len(users), seen)
	}
}

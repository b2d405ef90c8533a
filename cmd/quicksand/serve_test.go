package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"net"
	"net/http"
	"net/netip"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"quicksand/internal/bgp"
	"quicksand/internal/bgpd"
	"quicksand/internal/monitord"
)

func TestParseWatchFile(t *testing.T) {
	in := `# watchlist
10.0.0.0/16 64496

10.1.0.0/24 64497
`
	watched, err := parseWatchFile(strings.NewReader(in))
	if err != nil {
		t.Fatalf("parseWatchFile: %v", err)
	}
	if len(watched) != 2 {
		t.Fatalf("got %d entries, want 2", len(watched))
	}
	for _, bad := range []string{
		"", "10.0.0.0/16", "10.0.0.0/16 64496 extra", "nope 64496", "10.0.0.0/16 nope",
	} {
		if _, err := parseWatchFile(strings.NewReader(bad)); err == nil {
			t.Errorf("parseWatchFile(%q) succeeded", bad)
		}
	}

	// One prefix, two origins: an error naming both lines, also when the
	// spellings differ only in host bits. An identical repeat is fine.
	for _, dup := range []string{
		"10.0.0.0/16 64496\n# c\n10.0.0.0/16 64497\n",
		"10.0.0.0/16 64496\n10.9.0.0/16 1\n10.0.3.7/16 64497\n",
	} {
		_, err := parseWatchFile(strings.NewReader(dup))
		if err == nil || !strings.Contains(err.Error(), "line 3") || !strings.Contains(err.Error(), "line 1") {
			t.Errorf("parseWatchFile(%q) = %v, want a conflict naming lines 3 and 1", dup, err)
		}
	}
	watched, err = parseWatchFile(strings.NewReader("10.0.0.0/16 64496\n10.0.0.0/16 64496\n"))
	if err != nil || len(watched) != 1 {
		t.Errorf("identical repeat: %v, %v; want one entry", watched, err)
	}
}

// TestServeSmoke starts the serve subcommand's daemon from its flag
// set (loopback, ephemeral ports, file watchlist) and checks that the
// HTTP API answers — the wiring between flags, config, and monitord.
func TestServeSmoke(t *testing.T) {
	watch := filepath.Join(t.TempDir(), "watch.txt")
	if err := os.WriteFile(watch, []byte("10.0.0.0/16 64496\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	o := serveFlags(fs)
	if err := fs.Parse([]string{
		"-watch", watch,
		"-listen-bgp", "127.0.0.1:0",
		"-listen-http", "127.0.0.1:0",
		"-hold", "3s",
	}); err != nil {
		t.Fatal(err)
	}
	cfg, err := o.serveConfig(t.Logf)
	if err != nil {
		t.Fatalf("serveConfig: %v", err)
	}
	if len(cfg.Watched) != 1 || len(cfg.Collectors) != 0 {
		t.Fatalf("config = %+v", cfg)
	}
	d, err := monitord.New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := d.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		http.DefaultClient.CloseIdleConnections()
	}()
	if d.BGPAddr() == "" || d.HTTPAddr() == "" {
		t.Fatal("listeners not bound")
	}

	resp, err := http.Get("http://" + d.HTTPAddr() + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	defer resp.Body.Close()
	var h struct {
		Status  string `json:"status"`
		Watched int    `json:"watched_prefixes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatalf("decoding /healthz: %v", err)
	}
	if h.Status != "ok" || h.Watched != 1 {
		t.Errorf("/healthz = %+v", h)
	}
}

// TestServeRejectsWideASN is the regression test for -asn narrowing: a
// 64-bit flag converted to a 4-octet ASN, so -asn 4294967297 spoke as AS1.
func TestServeRejectsWideASN(t *testing.T) {
	watch := filepath.Join(t.TempDir(), "watch.txt")
	if err := os.WriteFile(watch, []byte("10.0.0.0/16 64496\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	o := serveFlags(fs)
	if err := fs.Parse([]string{"-watch", watch, "-asn", "4294967297"}); err != nil {
		t.Fatal(err)
	}
	if _, err := o.serveConfig(t.Logf); err == nil || !strings.Contains(err.Error(), "-asn") {
		t.Errorf("serveConfig at -asn 4294967297 = %v, want an error naming -asn", err)
	}
}

// TestServeFleetSmoke exercises the -fleet arm of the serve wiring:
// flag parsing into the daemon's config (the shard count and the filter)
// and a live daemon answering /healthz with the shard count.
func TestServeFleetSmoke(t *testing.T) {
	watch := filepath.Join(t.TempDir(), "watch.txt")
	if err := os.WriteFile(watch, []byte("10.0.0.0/16 64496\n10.1.0.0/16 64497\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	parse := func(args ...string) *serveOpts {
		fs := flag.NewFlagSet("serve", flag.ContinueOnError)
		o := serveFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return o
	}

	o := parse("-fleet", "2", "-watch", watch,
		"-listen-bgp", "127.0.0.1:0", "-listen-http", "127.0.0.1:0", "-hold", "3s")
	cfg, err := o.serveConfig(t.Logf)
	if err != nil {
		t.Fatalf("serveConfig: %v", err)
	}
	if cfg.Shards != 2 || !cfg.DropUnwatched || len(cfg.Watched) != 2 {
		t.Fatalf("config = %+v", cfg)
	}
	r, err := monitord.New(cfg)
	if err != nil {
		t.Fatalf("monitord.New: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := r.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		http.DefaultClient.CloseIdleConnections()
	}()

	resp, err := http.Get("http://" + r.HTTPAddr() + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	defer resp.Body.Close()
	var h struct {
		Status string `json:"status"`
		Shards int    `json:"shards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatalf("decoding /healthz: %v", err)
	}
	if h.Status != "ok" || h.Shards != 2 {
		t.Errorf("/healthz = %+v", h)
	}
}

// TestServeSignalBeforeBoot is the regression test for the early-
// SIGTERM race: serve used to install its signal handler only after the
// world build, boot and ingest, so a signal landing meanwhile killed the
// process without Shutdown. With the signal already pending when serve
// starts, both arms must still boot, shut down in order, and return nil.
func TestServeSignalBeforeBoot(t *testing.T) {
	watch := filepath.Join(t.TempDir(), "watch.txt")
	if err := os.WriteFile(watch, []byte("10.0.0.0/16 64496\n10.1.0.0/16 64497\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, extra := range map[string][]string{"daemon": nil, "fleet": {"-fleet", "2"}} {
		t.Run(name, func(t *testing.T) {
			sig := make(chan os.Signal, 1)
			sig <- syscall.SIGTERM
			var logs bytes.Buffer
			args := append([]string{"-watch", watch, "-listen-bgp", "127.0.0.1:0", "-listen-http", "127.0.0.1:0"}, extra...)
			if err := serve(args, sig, &logs); err != nil {
				t.Fatalf("serve with a pending SIGTERM: %v\n%s", err, logs.String())
			}
			for _, want := range []string{"terminated received, shutting down", "shutdown complete"} {
				if !strings.Contains(logs.String(), want) {
					t.Errorf("log lacks %q:\n%s", want, logs.String())
				}
			}
		})
	}
}

// TestServeFourOctetOrigins is the regression test for the AS_TRANS
// collapse: serve at its default 2-octet -asn used not to offer the
// 4-octet-AS capability, so every 4-octet origin reached the monitor as
// AS23456 — two hijackers looked like one, and a watched prefix whose
// legitimate origin is 4-octet alarmed on its own announcements. Both
// arms must negotiate AS4 with a peer that offers it, report each
// hijacker's own ASN, stay quiet on the legitimate 4-octet origin, and
// still negotiate down for a peer that does not offer the capability.
func TestServeFourOctetOrigins(t *testing.T) {
	watch := filepath.Join(t.TempDir(), "watch.txt")
	if err := os.WriteFile(watch, []byte("10.0.0.0/16 64496\n10.1.0.0/16 4200000001\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, extra := range map[string][]string{"daemon": nil, "fleet": {"-fleet", "2"}} {
		t.Run(name, func(t *testing.T) {
			fs := flag.NewFlagSet("serve", flag.ContinueOnError)
			o := serveFlags(fs)
			args := append([]string{"-watch", watch, "-listen-bgp", "127.0.0.1:0", "-listen-http", "127.0.0.1:0"}, extra...)
			if err := fs.Parse(args); err != nil {
				t.Fatal(err)
			}
			svc, err := o.boot(t.Logf)
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				if err := svc.Shutdown(ctx); err != nil {
					t.Errorf("Shutdown: %v", err)
				}
			}()

			dial := func(asn bgp.ASN, as4 bool) *bgpd.Session {
				t.Helper()
				conn, err := net.Dial("tcp", svc.BGPAddr())
				if err != nil {
					t.Fatal(err)
				}
				sess, err := bgpd.Establish(conn, bgpd.Config{
					ASN: asn, BGPID: netip.MustParseAddr("203.0.113.9"), AS4: as4,
				})
				if err != nil {
					conn.Close()
					t.Fatal(err)
				}
				t.Cleanup(func() { sess.Close() })
				if sess.AS4() != as4 {
					t.Fatalf("peer AS%d offering AS4=%v negotiated AS4=%v", asn, as4, sess.AS4())
				}
				return sess
			}
			announce := func(sess *bgpd.Session, prefix string, path ...bgp.ASN) {
				t.Helper()
				err := sess.SendUpdate(&bgp.Update{
					NLRI: []netip.Prefix{netip.MustParsePrefix(prefix)},
					Attrs: bgp.PathAttributes{
						HasOrigin: true, Origin: bgp.OriginIGP,
						HasASPath: true, ASPath: bgp.Sequence(path...),
						NextHop: netip.AddrFrom4([4]byte{203, 0, 113, 9}),
					},
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			poller := &monitord.HTTPAlerts{Base: "http://" + svc.HTTPAddr()}
			waitOrigins := func(want ...bgp.ASN) {
				t.Helper()
				var got []bgp.ASN
				for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
					alerts, _, _ := poller.Alerts(0, 0)
					got = got[:0]
					for _, a := range alerts {
						got = append(got, a.Observed)
					}
					if len(got) >= len(want) {
						break
					}
				}
				slices.Sort(got)
				if !slices.Equal(got, want) {
					t.Fatalf("alert origins = %v, want %v", got, want)
				}
			}

			wide := dial(64601, true)
			announce(wide, "10.1.0.0/16", 64601, 4200000001) // legitimate 4-octet origin
			announce(wide, "10.0.0.0/16", 64601, 400000)
			announce(wide, "10.0.0.0/16", 64601, 400001)
			waitOrigins(400000, 400001)

			narrow := dial(64602, false)
			announce(narrow, "10.0.0.0/16", 64602, 666)
			waitOrigins(666, 400000, 400001)
		})
	}
}

func TestSplitList(t *testing.T) {
	if got := splitList(" a, b ,,c "); len(got) != 3 || got[0] != "a" || got[2] != "c" {
		t.Errorf("splitList = %v", got)
	}
	if got := splitList(""); got != nil {
		t.Errorf("splitList(\"\") = %v, want nil", got)
	}
}

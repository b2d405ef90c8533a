package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"quicksand/internal/testkit"
)

// TestServeObsSmoke is -pprof's user: serve mounts net/http/pprof on its
// one HTTP API, the -listen-http address, on either front, and only when
// asked. /metrics there carries the bgpd_* and monitord_* families and
// passes lint. With no HTTP API to mount on, -pprof is an error.
func TestServeObsSmoke(t *testing.T) {
	watch := filepath.Join(t.TempDir(), "watch.txt")
	if err := os.WriteFile(watch, []byte("10.0.0.0/16 64496\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	get := func(url string) (int, string) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}
	for name, tc := range map[string]struct {
		args  []string
		pprof int
	}{
		"daemon":       {[]string{"-watch", watch, "-pprof"}, http.StatusOK},
		"fleet":        {[]string{"-watch", watch, "-fleet", "2", "-pprof"}, http.StatusOK},
		"daemon quiet": {[]string{"-watch", watch}, http.StatusNotFound},
	} {
		t.Run(name, func(t *testing.T) {
			base := "http://" + runServe(t, tc.args...)
			if code, _ := get(base + "/debug/pprof/cmdline"); code != tc.pprof {
				t.Errorf("/debug/pprof/cmdline: status %d, want %d", code, tc.pprof)
			}
			code, text := get(base + "/metrics")
			if code != http.StatusOK {
				t.Fatalf("/metrics: status %d", code)
			}
			for _, family := range []string{"monitord_updates_ingested_total", "bgpd_sessions_established_total"} {
				if !strings.Contains(text, family) {
					t.Errorf("/metrics missing %s", family)
				}
			}
			if errs := testkit.LintProm(text); len(errs) != 0 {
				t.Errorf("/metrics fails lint: %v", errs)
			}
		})
	}
	t.Cleanup(http.DefaultClient.CloseIdleConnections)

	err := serve([]string{"-watch", watch, "-listen-bgp", "", "-listen-http", "", "-pprof"}, nil, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-pprof") {
		t.Errorf("serve -pprof -listen-http \"\" = %v, want an error naming -pprof", err)
	}
}

// TestServeLogFlags is the user of -log-json and -log-level: serve's
// log is JSON lines stamped with its component and run under -log-json,
// is silenced below warnings by -log-level warn, and an unknown level
// is an error.
func TestServeLogFlags(t *testing.T) {
	watch := filepath.Join(t.TempDir(), "watch.txt")
	if err := os.WriteFile(watch, []byte("10.0.0.0/16 64496\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	serveLog := func(extra ...string) (string, error) {
		sig := make(chan os.Signal, 1)
		sig <- syscall.SIGTERM
		var logs bytes.Buffer
		err := serve(append([]string{"-watch", watch, "-listen-bgp", "", "-listen-http", ""}, extra...), sig, &logs)
		return logs.String(), err
	}

	logs, err := serveLog("-log-json")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(logs), "\n")
	for _, line := range lines {
		var rec struct{ Msg, Component, Run string }
		if err := json.Unmarshal([]byte(line), &rec); err != nil || rec.Component != "monitord" || rec.Run == "" {
			t.Errorf("-log-json line %q (%v): want JSON stamped with component and run", line, err)
		}
	}
	if !strings.Contains(lines[len(lines)-1], "shutdown complete") {
		t.Errorf("-log-json log does not end in shutdown complete:\n%s", logs)
	}

	if logs, err := serveLog("-log-level", "warn"); err != nil || logs != "" {
		t.Errorf("-log-level warn: err %v, logged %q; want nothing below a warning", err, logs)
	}
	if _, err := serveLog("-log-level", "loud"); err == nil {
		t.Error("-log-level loud was accepted")
	}
}

package main

import (
	"bytes"
	"flag"
	"strings"
	"testing"
)

// resilTestArgs keeps the subcommand tests fast: small world, few
// clients and trials, a modest big-phase topology.
var resilTestArgs = []string{"-scale", "small", "-clients", "15", "-trials", "8",
	"-big", "1500", "-big-guards", "3", "-big-attackers", "30"}

// resilRun parses args like resilCmd does and returns runResil's
// struct, the thing the report is printed from.
func resilRun(t *testing.T, args ...string) *resilReport {
	t.Helper()
	o := resilOptsFor(t, args...)
	alphas, err := o.alphaList()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := runResil(o, alphas)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func resilOptsFor(t *testing.T, args ...string) *resilOpts {
	t.Helper()
	fs := flag.NewFlagSet("resilience", flag.ContinueOnError)
	o := resilFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return o
}

// skipAtScale skips the paper- and 73K-scale gates where the other
// 73K tests skip: -short, and -race (instrumentation slows them ~20x).
func skipAtScale(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("skipping scale gate in -short mode")
	}
	if raceEnabled {
		t.Skip("skipping scale gate under -race")
	}
}

func TestResilCmdReport(t *testing.T) {
	var out bytes.Buffer
	if err := resilCmd(resilTestArgs, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		"E10", "bandwidth", "short-path", "resilience a=0.50", "resilience a=1.00",
		"capture margin", "73K estimator", "agreement",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q:\n%s", want, text)
		}
	}
}

// TestRunResilSmall pins the struct the report prints from, at small
// scale: world shape, arm order, the margin, and the big-phase fields.
func TestRunResilSmall(t *testing.T) {
	rep := resilRun(t, resilTestArgs...)
	if rep.Scale != "small" || rep.GuardASes == 0 || rep.MatrixPairs == 0 {
		t.Errorf("report shape: %+v", rep)
	}
	wantArms := []struct {
		name  string
		alpha float64
	}{{"bandwidth", 0}, {"short-path", 0}, {"resilience a=0.50", 0.5}, {"resilience a=1.00", 1}}
	if len(rep.Arms) != len(wantArms) {
		t.Fatalf("arms = %d, want vanilla + short-path + 2 alphas", len(rep.Arms))
	}
	for i, w := range wantArms {
		if a := rep.Arms[i]; a.Name != w.name || a.Alpha != w.alpha {
			t.Errorf("arm %d = %q a=%v, want %q a=%v", i, a.Name, a.Alpha, w.name, w.alpha)
		}
	}
	if rep.CaptureMargin <= 0 {
		t.Errorf("capture margin %v, want > 0", rep.CaptureMargin)
	}
	if rep.TablesPerSec <= 0 || rep.PairsPerSec <= 0 {
		t.Errorf("throughput missing: %+v", rep)
	}
	if rep.BigASes != 1500 || rep.BigGuards != 3 || rep.BigAttackers != 30 || rep.BigBound <= 0 {
		t.Errorf("big phase missing: %+v", rep)
	}
	if rep.BigWithinBound < 0.9 {
		t.Errorf("big-phase agreement %v below 0.9", rep.BigWithinBound)
	}
}

// TestResilPaperCaptureMargin is the Counter-RAPTOR claim at the scale
// the paper's numbers are quoted at: with the 200-attacker budget per
// guard, resilience weighting must strictly lower the analytic capture
// probability against vanilla bandwidth weighting at every alpha.
func TestResilPaperCaptureMargin(t *testing.T) {
	skipAtScale(t)
	rep := resilRun(t, "-scale", "paper", "-attackers", "200", "-big", "0")
	if rep.ASes < 1000 || rep.ErrorBound <= 0 {
		t.Fatalf("not the sampled paper-scale run: %d ASes, bound %v", rep.ASes, rep.ErrorBound)
	}
	if rep.CaptureMargin <= 0 {
		t.Errorf("capture margin %.4f, want > 0", rep.CaptureMargin)
	}
}

// TestResil73KEstimatorAgreement checks the sampled estimator's 95%
// bound is honest at Internet scale: two independent 96-attacker
// samples over 12 guards of the 73K-AS topology must agree within
// their combined bounds on at least 0.9 of all (client, guard) pairs.
func TestResil73KEstimatorAgreement(t *testing.T) {
	skipAtScale(t)
	o := resilOptsFor(t, "-big", "73000", "-big-guards", "12", "-big-attackers", "96")
	var rep resilReport
	if err := resilBigPhase(o, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.BigASes != 73000 {
		t.Fatalf("BigASes = %d, want 73000", rep.BigASes)
	}
	if rep.BigWithinBound < 0.9 {
		t.Errorf("agreement %.4f below 0.9 (bound ±%.3f, max dev %.3f)",
			rep.BigWithinBound, 2*rep.BigBound, rep.BigMaxDeviation)
	}
}

func TestResilCmdSkipBigPhase(t *testing.T) {
	var out bytes.Buffer
	args := []string{"-scale", "small", "-clients", "10", "-trials", "4", "-big", "0"}
	if err := resilCmd(args, &out); err != nil {
		t.Fatal(err)
	}
	if text := out.String(); strings.Contains(text, "73K estimator") || !strings.Contains(text, "capture margin") {
		t.Errorf("-big 0 report:\n%s", text)
	}
}

func TestResilCmdFlagErrors(t *testing.T) {
	var out bytes.Buffer
	if err := resilCmd([]string{"extra"}, &out); err == nil {
		t.Error("positional argument accepted")
	}
	if err := resilCmd([]string{"-scale", "huge"}, &out); err == nil {
		t.Error("unknown scale accepted")
	}
	if err := resilCmd([]string{"-a", "nope"}, &out); err == nil {
		t.Error("bad alpha list accepted")
	}
	if err := resilCmd([]string{"-a", ","}, &out); err == nil {
		t.Error("empty alpha list accepted")
	}
	if err := resilCmd([]string{"-scale", "small", "-a", "2.0", "-big", "0"}, &out); err == nil {
		t.Error("alpha outside [0,1] accepted")
	}
	// The big-phase sample sizes are range-checked against -big before
	// anything is built: each case also carries -a 2.0, which the study
	// would reject first if it ran.
	for _, c := range []struct{ flag, val string }{
		{"-big-guards", "0"}, {"-big-guards", "1501"},
		{"-big-attackers", "0"}, {"-big-attackers", "1499"},
	} {
		err := resilCmd([]string{"-scale", "small", "-a", "2.0", "-big", "1500", c.flag, c.val}, &out)
		if err == nil || !strings.Contains(err.Error(), c.flag) {
			t.Errorf("%s %s: err = %v, want an up-front range error", c.flag, c.val, err)
		}
	}
	if err := resilCmd([]string{"-json"}, &out); err == nil {
		t.Error("retired -json flag accepted")
	}
}

package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"circuitstart/internal/experiments"
	"circuitstart/internal/sim"
)

func TestRunFig1Cwnd(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "trace.csv")
	if err := runFig1Cwnd([]string{"-distance", "1", "-horizon", "500ms", "-csv", csv}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) < 5 {
		t.Fatalf("CSV has %d lines", len(lines))
	}
	if lines[0] != "time_ms,cwnd_kb" {
		t.Fatalf("header = %q", lines[0])
	}
}

// TestRunFig1CwndBadFlags pins that a flag the trace cannot honour
// fails before anything runs, with an error naming it, instead of
// falling back to a default the output then misreports.
func TestRunFig1CwndBadFlags(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-distance", "9"}, "bottleneck hop 9"},
		{[]string{"-policy", "warp"}, `"warp"`},
		{[]string{"-horizon", "0s"}, "-horizon 0s"},
		{[]string{"-horizon", "-1s"}, "-horizon -1s"},
	} {
		err := runFig1Cwnd(c.args)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: error %v, want one naming %q", c.args, err, c.want)
		}
	}
}

func TestRunFig1CDFSmall(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "cdf.csv")
	if err := runFig1CDF([]string{"-circuits", "4", "-relays", "10", "-size", "100000", "-csv", csv}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "ttlb_circuitstart") {
		t.Fatalf("CSV missing arm column:\n%s", data)
	}
}

// TestFig1CDFWithoutCompletedTransfer runs the fig1-cdf report on a
// horizon too short for any transfer to finish: the table must say why
// the median improvement is missing instead of asking an empty
// distribution for its median.
func TestFig1CDFWithoutCompletedTransfer(t *testing.T) {
	sc := experiments.Fig1CDF(42)
	sc.Circuits.Count = 2
	sc.Topology.Population.N = 5
	sc.Horizon = sim.Millisecond
	var buf bytes.Buffer
	if err := writeFig1CDF(&buf, sc, ""); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "left 2 transfers incomplete") {
		t.Errorf("report does not warn about the incomplete transfers:\n%s", out)
	}
	if want := "median improvement with CircuitStart: none, circuitstart completed no transfer\n"; !strings.HasSuffix(out, want) {
		t.Errorf("report does not end with %q:\n%s", want, out)
	}
}

// TestUsageMatchesCommandTable pins the help text to the dispatch
// table: every command the binary accepts is listed, every ablation
// name appears, and nothing extra is advertised.
func TestUsageMatchesCommandTable(t *testing.T) {
	var buf strings.Builder
	usage(&buf)
	help := buf.String()
	for _, cmd := range commands {
		if !strings.Contains(help, "\n  "+cmd.name) {
			t.Errorf("usage does not list command %q:\n%s", cmd.name, help)
		}
		if cmd.run == nil {
			t.Errorf("command %q has no implementation", cmd.name)
		}
	}
	for _, name := range ablationNames() {
		if !strings.Contains(help, name) {
			t.Errorf("usage does not mention ablation %q", name)
		}
	}
	if got := strings.Count(help, "\n  "); got != len(commands) {
		t.Errorf("usage lists %d commands, table has %d", got, len(commands))
	}
}

func TestRunScenario(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "cdf.csv")
	args := []string{"-circuits", "4", "-relays", "10", "-size", "100000",
		"-reps", "2", "-workers", "4", "-poisson", "40", "-csv", csv}
	if err := runScenario(args); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "ttlb_circuitstart") {
		t.Fatalf("CSV missing arm column:\n%s", data)
	}
	if err := runScenario([]string{"-arms", "warp"}); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if err := runScenario([]string{"-arms", ""}); err == nil {
		t.Fatal("empty arm list accepted")
	}
}

// TestRunScenarioRejectsBadFlags pins that the scenario flags a
// Scenario cannot express fail before anything runs, instead of
// falling back to a default the output then misreports.
func TestRunScenarioRejectsBadFlags(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-poisson", "-3"}, "-poisson -3"},
		{[]string{"-reps", "0"}, "-reps 0"},
		{[]string{"-reps", "-1"}, "-reps -1"},
		{[]string{"-spread", "-1s"}, "-spread -1s"},
		{[]string{"-hops", "0"}, "-hops 0"},
		{[]string{"-switches", "-1"}, "-switches -1"},
	} {
		err := runScenario(append([]string{"-circuits", "1", "-relays", "4", "-size", "1000"}, c.args...))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: error %v, want one naming %q", c.args, err, c.want)
		}
	}
}

// TestRunSpecCmd drives the spec subcommand: the canonical print is a
// fixed point, -validate prints its one-line summary, and a spec that
// fails to parse is reported under its file name.
func TestRunSpecCmd(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "grid.json")
	if err := os.WriteFile(src, []byte(`{"dimensions": [{"gammas": [4, 2]}, {"bandwidths_mbps": [8]}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	canonical := captureStdout(t, func() error { return runSpecCmd([]string{src}) })
	again := filepath.Join(dir, "canonical.json")
	if err := os.WriteFile(again, []byte(canonical), 0o644); err != nil {
		t.Fatal(err)
	}
	if out := captureStdout(t, func() error { return runSpecCmd([]string{again}) }); out != canonical {
		t.Fatalf("canonical form is not a fixed point:\n%s\nvs\n%s", canonical, out)
	}
	summary := captureStdout(t, func() error { return runSpecCmd([]string{"-validate", src}) })
	if want := src + `: ok — "spec-sweep", 2 points over 2 dimensions (grid 2), base hash `; !strings.HasPrefix(summary, want) {
		t.Fatalf("summary %q, want prefix %q", summary, want)
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"base": {"kind": "population", "hops": -2}, "dimensions": [{"gammas": [2]}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runSpecCmd([]string{"-validate", bad}); err == nil || !strings.HasPrefix(err.Error(), bad+": ") {
		t.Fatalf("bad spec: error %v, want one naming %s", err, bad)
	}
	if err := runSpecCmd(nil); err == nil {
		t.Fatal("no spec file accepted")
	}
}

package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSweepCSV(t *testing.T) {
	out := filepath.Join(t.TempDir(), "grid.csv")
	if err := runSweep([]string{"-gammas", "2,4", "-bandwidths", "8,16", "-workers", "2", "-out", out}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 1+4 {
		t.Fatalf("CSV has %d lines, want header + 4 rows:\n%s", len(lines), data)
	}
	if !strings.HasPrefix(lines[0], "point,bottleneck_bw,gamma,arm,") {
		t.Fatalf("header = %q", lines[0])
	}
}

// TestRunSweepHopsBandwidthCompose checks that the hops and bandwidth
// axes compose on the trace base even when a hop count falls below the
// bottleneck distance (the bottleneck clamps to the last relay and the
// bandwidth axis follows it).
func TestRunSweepHopsBandwidthCompose(t *testing.T) {
	out := filepath.Join(t.TempDir(), "grid.csv")
	if err := runSweep([]string{"-hopcounts", "2,3", "-bandwidths", "8,16", "-out", out}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(strings.TrimSpace(string(data)), "\n")[1:]
	if len(rows) != 4 {
		t.Fatalf("%d rows, want 4:\n%s", len(rows), data)
	}
	// The bandwidth axis must produce different outcomes per rate at
	// every hop count — identical rows would mean one axis was
	// silently clobbered.
	if rows[0] == rows[1] || rows[2] == rows[3] {
		t.Fatalf("bandwidth axis had no effect:\n%s", data)
	}
}

// TestRunSweepResumeAppends checks the documented resume contract: an
// interrupted sweep's -out file is completed in place, not truncated,
// in either output format.
func TestRunSweepResumeAppends(t *testing.T) {
	dir := t.TempDir()
	grid := []string{"-gammas", "2,4", "-bandwidths", "8,16"}
	for _, ext := range []string{".csv", ".jsonl"} {
		full, part := filepath.Join(dir, "full"+ext), filepath.Join(dir, "part"+ext)
		if err := runSweep(append([]string{"-out", full}, grid...)); err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(full)
		if err != nil {
			t.Fatal(err)
		}
		// Simulate an interruption after point 1: keep header + 2 rows.
		lines := strings.SplitAfter(string(want), "\n")
		if err := os.WriteFile(part, []byte(strings.Join(lines[:3], "")), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := runSweep(append([]string{"-resume", "2", "-out", part}, grid...)); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(part)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("resumed %s file differs from the uninterrupted run:\n--- got ---\n%s--- want ---\n%s", ext, got, want)
		}
	}
}

// TestRunSweepWorkerDeterminism pins the acceptance contract at the CLI
// surface: a gamma×bandwidth grid writes identical CSV bytes for
// -workers 1 and -workers 8.
func TestRunSweepWorkerDeterminism(t *testing.T) {
	dir := t.TempDir()
	one, eight := filepath.Join(dir, "w1.csv"), filepath.Join(dir, "w8.csv")
	grid := []string{"-gammas", "2,4", "-bandwidths", "8,16"}
	if err := runSweep(append([]string{"-workers", "1", "-out", one}, grid...)); err != nil {
		t.Fatal(err)
	}
	if err := runSweep(append([]string{"-workers", "8", "-out", eight}, grid...)); err != nil {
		t.Fatal(err)
	}
	d1, err := os.ReadFile(one)
	if err != nil {
		t.Fatal(err)
	}
	d8, err := os.ReadFile(eight)
	if err != nil {
		t.Fatal(err)
	}
	if string(d1) != string(d8) {
		t.Fatalf("sweep CSV differs between -workers 1 and -workers 8:\n--- 1 ---\n%s\n--- 8 ---\n%s", d1, d8)
	}
}

func TestRunSweepPopulationJSONL(t *testing.T) {
	out := filepath.Join(t.TempDir(), "grid.jsonl")
	args := []string{"-base", "population", "-relays", "10", "-circuits", "3", "-size", "100000",
		"-arms", "circuitstart,backtap", "-gammas", "2,4", "-workers", "2", "-out", out}
	if err := runSweep(args); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	// Header + 2 points × 2 arms.
	if len(lines) != 1+4 {
		t.Fatalf("JSONL has %d lines, want 5:\n%s", len(lines), data)
	}
	if !strings.Contains(lines[0], `"schema":"circuitsim-sweep/v1"`) {
		t.Fatalf("missing schema header: %s", lines[0])
	}
	if !strings.Contains(lines[2], `"arm":"backtap"`) {
		t.Fatalf("missing backtap arm row: %s", lines[2])
	}
}

func TestRunSweepSpecFile(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "grid.json")
	specJSON := `{
		"name": "spec-test",
		"base": {"kind": "population", "relays": 10, "circuits": 3, "size_bytes": 100000, "horizon_sec": 120},
		"dimensions": [{"gammas": [2, 4]}, {"counts": [2, 3]}]
	}`
	if err := os.WriteFile(spec, []byte(specJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "grid.csv")
	if err := runSweep([]string{"-spec", spec, "-workers", "2", "-out", out}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 1+4 {
		t.Fatalf("spec sweep wrote %d lines, want 5:\n%s", len(lines), data)
	}
	if !strings.HasPrefix(lines[0], "point,gamma,circuits,arm,") {
		t.Fatalf("header = %q", lines[0])
	}
}

func TestRunSweepSampled(t *testing.T) {
	out := filepath.Join(t.TempDir(), "grid.csv")
	args := []string{"-gammas", "1,2,4,8", "-bandwidths", "8,16", "-sample", "3", "-out", out}
	if err := runSweep(args); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Split(strings.TrimSpace(string(data)), "\n"); len(lines) != 1+3 {
		t.Fatalf("sampled sweep wrote %d lines, want 4:\n%s", len(lines), data)
	}
}

func TestRunSweepFaultsDimension(t *testing.T) {
	out := filepath.Join(t.TempDir(), "grid.csv")
	args := []string{"-base", "population", "-relays", "10", "-circuits", "3", "-size", "100000",
		"-faults", "none,hang", "-out", out}
	if err := runSweep(args); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 1+2 {
		t.Fatalf("faults sweep wrote %d lines, want 3:\n%s", len(lines), data)
	}
	if !strings.HasPrefix(lines[0], "point,faults,arm,") {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], ",none,") || !strings.Contains(lines[2], ",hang,") {
		t.Fatalf("preset labels missing from rows:\n%s", data)
	}
}

func TestRunSweepSpecFaultsDimension(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "grid.json")
	specJSON := `{
		"base": {"kind": "population", "relays": 10, "circuits": 3, "size_bytes": 100000},
		"dimensions": [{"faults": ["none", "recovery"]}]
	}`
	if err := os.WriteFile(spec, []byte(specJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "grid.csv")
	if err := runSweep([]string{"-spec", spec, "-out", out}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Split(strings.TrimSpace(string(data)), "\n"); len(lines) != 1+2 {
		t.Fatalf("spec faults sweep wrote %d lines, want 3:\n%s", len(lines), data)
	}
}

// TestRunSweepGridPointFailsCleanly pins the scripted-sweep error
// contract: a grid value that cannot run (here a zero bottleneck
// bandwidth) is refused when the spec is parsed, with an error naming
// the value, not inside a worker, and the sweep writes no output.
func TestRunSweepGridPointFailsCleanly(t *testing.T) {
	out := filepath.Join(t.TempDir(), "grid.csv")
	err := runSweep([]string{"-bandwidths", "8,0", "-out", out})
	if err == nil {
		t.Fatal("zero-bandwidth grid point accepted")
	}
	if !strings.Contains(err.Error(), "bandwidth 0 Mbit/s") {
		t.Fatalf("error %q does not name the zero bandwidth", err)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Fatalf("refused sweep left %s behind (stat: %v)", out, err)
	}
}

func TestRunSweepBadFlags(t *testing.T) {
	cases := [][]string{
		{},                                      // no dimensions
		{"-gammas", "2", "-base", "warp"},       // unknown base
		{"-policies", "warp"},                   // unknown policy
		{"-gammas", "x"},                        // unparseable value
		{"-gammas", "2", "-distance", "9"},      // bottleneck beyond path
		{"-gammas", "2", "-out", "x.parquet"},   // unknown format
		{"-gammas", "2", "-arms", ""},           // no arms
		{"-hopcounts", "2,4", "-counts", "x"},   // bad count list
		{"-base", "population", "-counts", "0"}, // invalid point (0 circuits)
		{"-faults", "meteor"},                   // unknown fault preset
	}
	for i, args := range cases {
		if err := runSweep(args); err == nil {
			t.Errorf("case %d (%v) accepted", i, args)
		}
	}
}

// TestRunSweepRejectsNonFinite pins that a NaN or infinite value in a
// dimension flag is refused naming the flag, and that a NaN size-dist
// sigma is refused instead of running as 1-byte transfers.
func TestRunSweepRejectsNonFinite(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-gammas", "NaN"}, "-gammas"},
		{[]string{"-gammas", "2", "-bandwidths", "Inf"}, "-bandwidths"},
		{[]string{"-base", "population", "-circuits", "3", "-relays", "12",
			"-sizedists", "lognormal:250000:NaN,lognormal:250000:0.5", "-horizon", "30s"}, "sigma NaN"},
	} {
		err := runSweep(tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err = %v, want one naming %s", tc.args, err, tc.want)
		}
	}
}

// TestRunSweepSpecExplicitZeroSpread checks that "spread_ms": 0 in a
// spec is honoured (simultaneous arrivals) rather than silently
// replaced with the default stagger.
func TestRunSweepSpecExplicitZeroSpread(t *testing.T) {
	dir := t.TempDir()
	run := func(spreadField string) string {
		spec := filepath.Join(dir, "grid.json")
		specJSON := `{"base": {"kind": "population", "relays": 10, "circuits": 3, "size_bytes": 100000` +
			spreadField + `}, "dimensions": [{"gammas": [4]}]}`
		if err := os.WriteFile(spec, []byte(specJSON), 0o644); err != nil {
			t.Fatal(err)
		}
		out := filepath.Join(dir, "grid.csv")
		if err := runSweep([]string{"-spec", spec, "-out", out}); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	zero := run(`, "spread_ms": 0`)
	dflt := run(``)
	if zero == dflt {
		t.Fatal("spread_ms: 0 produced the same grid as the default stagger — the explicit zero was ignored")
	}
}

func TestRunSweepSpecErrors(t *testing.T) {
	dir := t.TempDir()
	bad := []string{
		`{"dimensions": []}`, // no dimensions
		`{"dimensions": [{"gammas": [1], "counts": [2]}]}`, // two axes in one block
		`{"dimensions": [{"gammas": [1]}], "bogus": 1}`,    // unknown field
		`{"dimensions": [{}]}`,                             // empty block
	}
	for i, specJSON := range bad {
		path := filepath.Join(dir, "bad.json")
		if err := os.WriteFile(path, []byte(specJSON), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := runSweep([]string{"-spec", path}); err == nil {
			t.Errorf("spec case %d accepted: %s", i, specJSON)
		}
	}
	if err := runSweep([]string{"-spec", filepath.Join(dir, "missing.json")}); err == nil {
		t.Error("missing spec file accepted")
	}
}

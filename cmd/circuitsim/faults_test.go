package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunScenarioFaultsPreset(t *testing.T) {
	args := []string{"-circuits", "4", "-relays", "10", "-size", "100000",
		"-reps", "2", "-workers", "4", "-seed", "42", "-faults", "flaky"}
	out := captureStdout(t, func() error { return runScenario(args) })
	if !strings.Contains(out, "stalls") {
		t.Fatalf("faulted scenario report has no resilience section:\n%s", out)
	}
}

func TestRunScenarioFaultsSpecFile(t *testing.T) {
	spec := filepath.Join(t.TempDir(), "plan.json")
	if err := os.WriteFile(spec, []byte(`{"recovery": {"enabled": true}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	args := []string{"-circuits", "2", "-relays", "10", "-size", "50000", "-faults", spec}
	if err := runScenario(args); err != nil {
		t.Fatal(err)
	}
}

func TestRunScenarioFaultsBadArg(t *testing.T) {
	err := runScenario([]string{"-circuits", "2", "-relays", "10", "-faults", "meteor"})
	if err == nil {
		t.Fatal("bogus -faults argument accepted")
	}
	if !strings.Contains(err.Error(), "neither a preset") {
		t.Fatalf("error %q does not explain the preset/spec-file choice", err)
	}
	// A malformed spec file must fail at parse, not run.
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"bogus": 1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runScenario([]string{"-circuits", "2", "-relays", "10", "-faults", bad}); err == nil {
		t.Fatal("malformed spec file accepted")
	}
}

// goldenFaultsArgs seeds the committed faulted fixture
// testdata/golden_faults.txt: the golden scenario population with the
// "flaky" preset (a relay flap plus access jitter) and recovery.
// Transfers are sized so they span the flap's first downtime window —
// the fixture records a stall, a recovery and a rebuild, so all the
// fault RNG streams and the watchdog path feed the pinned bytes.
var goldenFaultsArgs = []string{
	"-circuits", "4", "-relays", "10", "-size", "2000000",
	"-poisson", "40", "-reps", "2", "-workers", "4", "-seed", "42",
	"-faults", "flaky",
}

// TestGoldenFaultsOutput is the faulted twin of
// TestGoldenScenarioOutput. Regenerate after an intentional
// determinism change with:
//
//	go run ./cmd/circuitsim scenario -circuits 4 -relays 10 \
//	  -size 2000000 -poisson 40 -reps 2 -workers 4 -seed 42 \
//	  -faults flaky > cmd/circuitsim/testdata/golden_faults.txt
func TestGoldenFaultsOutput(t *testing.T) {
	want, err := os.ReadFile("testdata/golden_faults.txt")
	if err != nil {
		t.Fatal(err)
	}
	got := captureStdout(t, func() error { return runScenario(goldenFaultsArgs) })
	if got != string(want) {
		t.Errorf("seeded faulted output drifted from testdata/golden_faults.txt\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestFaultsWorkerCountOutput checks the faulted run end to end across
// worker counts: trial scheduling must not leak into results even when
// watchdogs, fault timers and rebuilds fire mid-trial.
func TestFaultsWorkerCountOutput(t *testing.T) {
	serialArgs := append([]string{}, goldenFaultsArgs...)
	for i, a := range serialArgs {
		if a == "-workers" {
			serialArgs[i+1] = "1"
		}
	}
	serial := captureStdout(t, func() error { return runScenario(serialArgs) })
	parallel := captureStdout(t, func() error { return runScenario(goldenFaultsArgs) })
	if serial != parallel {
		t.Errorf("faulted output differs between -workers 1 and -workers 4\n--- workers 1 ---\n%s--- workers 4 ---\n%s", serial, parallel)
	}
}

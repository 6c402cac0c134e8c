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
	// An empty spec file is a plan that fails to parse, not no plan.
	empty := filepath.Join(t.TempDir(), "empty.json")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runScenario([]string{"-circuits", "2", "-relays", "10", "-faults", empty}); err == nil {
		t.Fatal("empty spec file accepted")
	}
}

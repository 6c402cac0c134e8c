package main

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"circuitstart/internal/experiments"
	"circuitstart/internal/scenario"
)

// TestAblationNamesDispatch asserts every advertised ablation name
// reaches its implementation: each one but scale, which prints wall
// time, has a script under testdata/script that TestScripts runs, and a
// name outside the table is rejected.
func TestAblationNamesDispatch(t *testing.T) {
	pinned := map[string]bool{}
	for _, path := range scriptPaths(t) {
		for _, args := range readScript(t, path).commands {
			if len(args) == 3 && args[0] == "ablation" && args[1] == "-name" {
				pinned[args[2]] = true
			}
		}
	}
	for _, name := range ablationNames() {
		if name != "scale" && !pinned[name] {
			t.Errorf("ablation %q has no script under testdata/script", name)
		}
	}
	if err := runAblation([]string{"-name", "bogus"}); err == nil {
		t.Fatal("unknown ablation accepted")
	}
}

// TestRunAblationScale runs the scale ablation on a small ring. Its
// table prints wall time, so only the header is compared; a shard count
// that is not a positive integer is refused before anything runs.
func TestRunAblationScale(t *testing.T) {
	out := captureStdout(t, func() error {
		return runAblation([]string{"-name", "scale", "-relays", "32", "-switches", "4", "-shards", "1"})
	})
	if want := "over 32 relays behind 4 switches"; !strings.Contains(out, want) {
		t.Errorf("scale report does not say %q:\n%s", want, out)
	}
	if err := runAblation([]string{"-name", "scale", "-shards", "1,0"}); err == nil || !strings.Contains(err.Error(), `"0"`) {
		t.Errorf("-shards 1,0: error %v, want one naming the bad count", err)
	}
}

// trainedReport prints an ablation report with cell-train coalescing
// capped at train cells per link. The pinned tables run one event per
// cell, so this is the one way the batched link path (train formation,
// stretching, deferred ack and feedback flushes) reaches the ablations.
func trainedReport(t *testing.T, report func(io.Writer, scenario.Scenario) error, sc scenario.Scenario, train int) string {
	t.Helper()
	sc.TrainSize = train
	var buf bytes.Buffer
	if err := report(&buf, sc); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// checkTrained runs an ablation at TrainSize 8: it must describe the
// same experiment as its pinned table, testdata/script/<name>.txt, and
// must not reproduce that table, which would mean no train ever formed.
func checkTrained(t *testing.T, name string, report func(io.Writer, scenario.Scenario) error, sc scenario.Scenario) {
	t.Helper()
	want := readScript(t, "testdata/script/"+name+".txt").stdout
	got := trainedReport(t, report, sc, 8)
	gotHeader, _, _ := strings.Cut(got, "\n")
	wantHeader, _, _ := strings.Cut(want, "\n")
	if gotHeader != wantHeader {
		t.Errorf("trained %s header %q, want %q", name, gotHeader, wantHeader)
	}
	if got == want {
		t.Errorf("%s at TrainSize 8 printed the one-event-per-cell table:\n%s", name, got)
	}
}

func TestRunAblationChurn(t *testing.T) {
	sc, err := experiments.Churn(42)
	if err != nil {
		t.Fatal(err)
	}
	checkTrained(t, "churn", reportChurn, sc)
}

func TestRunAblationOverload(t *testing.T) {
	checkTrained(t, "overload", reportOverload, experiments.Overload(42))
}

func TestRunAblationFaults(t *testing.T) {
	checkTrained(t, "faults", reportFaults, experiments.Faults(42))
}

// TestAblationFaultsTrainDeterminism pins the TrainSize ≤ 1 contract on
// the faulted path: 0 (disabled) and 1 (trains of one) must both take
// the one-event-per-cell schedule and print byte-identical reports.
func TestAblationFaultsTrainDeterminism(t *testing.T) {
	sc := experiments.Faults(42)
	if a, b := trainedReport(t, reportFaults, sc, 0), trainedReport(t, reportFaults, sc, 1); a != b {
		t.Errorf("faults ablation differs between TrainSize 0 and 1\n--- 0 ---\n%s--- 1 ---\n%s", a, b)
	}
}

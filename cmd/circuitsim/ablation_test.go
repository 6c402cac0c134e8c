package main

import (
	"bytes"
	"io"
	"os"
	"strings"
	"testing"

	"circuitstart/internal/experiments"
	"circuitstart/internal/scenario"
)

// goldenTables lists every seeded table pinned under testdata/ablation:
// the file it is compared with and the command line that prints it.
// The scale ablation prints wall time, so it is the one ablation left
// out. Regenerate a file after an intentional change to its table
// with, for example:
//
//	go run ./cmd/circuitsim ablation -name churn > cmd/circuitsim/testdata/ablation/churn.txt
//
// and say in the change description which table moved and why.
var goldenTables = []struct {
	file string
	run  func([]string) error
	args []string
	slow bool // skipped under -short
}{
	{"gamma", runAblation, []string{"-name", "gamma"}, false},
	{"compensation", runAblation, []string{"-name", "compensation"}, false},
	{"clock", runAblation, []string{"-name", "clock"}, false},
	{"position", runAblation, []string{"-name", "position"}, false},
	{"concurrency", runAblation, []string{"-name", "concurrency"}, true},
	{"extensions", runAblation, []string{"-name", "extensions"}, false},
	{"vegas", runAblation, []string{"-name", "vegas"}, false},
	{"shared", runAblation, []string{"-name", "shared"}, false},
	{"churn", runAblation, []string{"-name", "churn"}, false},
	{"overload", runAblation, []string{"-name", "overload"}, false},
	{"faults", runAblation, []string{"-name", "faults"}, false},
	{"dynamic", runDynamic, nil, false},
	{"fig1-cwnd-1", runFig1Cwnd, []string{"-distance", "1"}, false},
	{"fig1-cwnd-3", runFig1Cwnd, []string{"-distance", "3"}, false},
	{"fig1-cdf", runFig1CDF, nil, true},
}

// TestGoldenTables re-runs every pinned command at the default seed and
// compares its stdout with the recorded file byte for byte, so a change
// to how an experiment is declared cannot move a published number
// unnoticed.
func TestGoldenTables(t *testing.T) {
	for _, g := range goldenTables {
		t.Run(g.file, func(t *testing.T) {
			if g.slow && testing.Short() {
				t.Skip("multi-second table")
			}
			path := "testdata/ablation/" + g.file + ".txt"
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			got := captureStdout(t, func() error { return g.run(g.args) })
			if got != string(want) {
				t.Errorf("output drifted from %s\n--- got ---\n%s--- want ---\n%s", path, got, want)
			}
		})
	}
}

// TestAblationNamesDispatch asserts every advertised ablation name
// reaches its implementation: each one but scale, which prints wall
// time, has a pinned table that TestGoldenTables runs, and a name
// outside the table is rejected.
func TestAblationNamesDispatch(t *testing.T) {
	pinned := map[string]bool{}
	for _, g := range goldenTables {
		pinned[g.file] = true
	}
	for _, name := range ablationNames() {
		if name != "scale" && !pinned[name] {
			t.Errorf("ablation %q has no table under testdata/ablation", name)
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
// same experiment as its pinned table and must not reproduce that
// table, which would mean no train ever formed.
func checkTrained(t *testing.T, file string, report func(io.Writer, scenario.Scenario) error, sc scenario.Scenario) {
	t.Helper()
	want, err := os.ReadFile("testdata/ablation/" + file + ".txt")
	if err != nil {
		t.Fatal(err)
	}
	got := trainedReport(t, report, sc, 8)
	gotHeader, _, _ := strings.Cut(got, "\n")
	wantHeader, _, _ := strings.Cut(string(want), "\n")
	if gotHeader != wantHeader {
		t.Errorf("trained %s header %q, want %q", file, gotHeader, wantHeader)
	}
	if got == string(want) {
		t.Errorf("%s at TrainSize 8 printed the one-event-per-cell table:\n%s", file, got)
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

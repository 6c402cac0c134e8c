package scenario_test

import (
	"bytes"
	"encoding/csv"
	"strings"
	"testing"
	"time"

	"circuitstart/internal/core"
	"circuitstart/internal/scenario"
	"circuitstart/internal/sim"
	"circuitstart/internal/sweep"
	"circuitstart/internal/units"
	"circuitstart/internal/workload"
)

// staticScenario is a two-arm, two-replication trial with no churn, no
// relay events and no faults.
func staticScenario() scenario.Scenario {
	pop := workload.DefaultRelayParams(12)
	return scenario.Scenario{
		Name:     "static",
		Seed:     7,
		Topology: scenario.Topology{Population: &pop},
		Circuits: scenario.CircuitSet{
			Count:        6,
			TransferSize: 200 * units.Kilobyte,
			Arrival:      scenario.Arrival{Kind: scenario.ArriveUniform, Spread: 100 * time.Millisecond},
		},
		Arms: []scenario.Arm{
			{Name: "with"},
			{Name: "without", Transport: core.TransportOptions{Policy: "backtap"}},
		},
		Horizon:      600 * sim.Second,
		Replications: 2,
	}
}

// TestStaticTrialContract pins what a trial without churn reports: no
// lifecycle ledger (zero ChurnStats, nil Lifetime), so neither the text
// summary nor a sweep row shows circuit builds or teardowns, while every
// completed download still carries its start instant.
func TestStaticTrialContract(t *testing.T) {
	sc := staticScenario()
	res, err := scenario.Runner{Workers: 3}.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, arm := range res.Arms {
		if arm.Churn != (scenario.ChurnStats{}) {
			t.Fatalf("arm %q reports a lifecycle ledger: %+v", arm.Name, arm.Churn)
		}
		if arm.TTLB.Len() != 12 {
			t.Fatalf("arm %q completed %d of 12 downloads", arm.Name, arm.TTLB.Len())
		}
		for _, o := range arm.Circuits {
			if o.Done && (o.StartAt <= 0 || o.StartAt >= sim.Time(0).Add(sc.Circuits.Arrival.Spread)) {
				t.Fatalf("arm %q download %d started at %v, outside the (0, %v) stagger", arm.Name, o.Index, o.StartAt, sc.Circuits.Arrival.Spread)
			}
		}
	}
	var text strings.Builder
	if err := res.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(text.String(), "torn_down") {
		t.Fatalf("static output grew a churn table:\n%s", text.String())
	}

	var buf bytes.Buffer
	sw := sweep.Sweep{Base: sc, Dimensions: []sweep.Dimension{sweep.Seeds(7)}}
	if _, err := (sweep.Engine{Workers: 1}).Run(sw, sweep.NewCSVSink(&buf)); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d CSV records, want a header and one row per arm", len(rows))
	}
	col := map[string]int{}
	for i, name := range rows[0] {
		col[name] = i
	}
	for _, row := range rows[1:] {
		if row[col["built"]] != "0" || row[col["torn_down"]] != "0" {
			t.Fatalf("static sweep row reports built=%s torn_down=%s", row[col["built"]], row[col["torn_down"]])
		}
	}
}

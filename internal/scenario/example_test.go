package scenario_test

import (
	"fmt"
	"time"

	"circuitstart/internal/core"
	"circuitstart/internal/netem"
	"circuitstart/internal/scenario"
	"circuitstart/internal/sim"
	"circuitstart/internal/units"
	"circuitstart/internal/workload"
)

// A single-circuit scenario over an explicit topology: one slow relay
// between two fast ones, one policy arm, deterministic outcome.
func Example() {
	fast := netem.Symmetric(units.Mbps(100), 5*time.Millisecond, 0)
	slow := netem.Symmetric(units.Mbps(8), 5*time.Millisecond, 0)
	res, err := scenario.Runner{Workers: 1}.Run(scenario.Scenario{
		Name: "example",
		Seed: 42,
		Topology: scenario.Topology{Relays: []scenario.RelaySpec{
			{ID: "r1", Access: fast},
			{ID: "r2", Access: slow},
			{ID: "r3", Access: fast},
		}},
		Circuits: scenario.CircuitSet{
			Paths:        [][]netem.NodeID{{"r1", "r2", "r3"}},
			TransferSize: 500 * units.Kilobyte,
		},
		Arms:    []scenario.Arm{{Name: "circuitstart"}},
		Horizon: 60 * sim.Second,
	})
	if err != nil {
		panic(err)
	}
	o := res.Arms[0].Circuits[0]
	fmt.Printf("done=%v ttlb=%v\n", o.Done, o.TTLB.Round(time.Millisecond))
	// Output:
	// done=true ttlb=746ms
}

// Circuit churn as scenario data: downloads arrive over fresh circuits,
// completed circuits are torn down, a relay fails mid-run and the
// Rebuild arm rebuilds the circuits it killed over new paths. The
// ChurnStats aggregate reports the lifecycle activity per arm.
func Example_churn() {
	pop := workload.DefaultRelayParams(12)
	res, err := scenario.Runner{Workers: 2}.Run(scenario.Scenario{
		Name:     "example-churn",
		Seed:     42,
		Topology: scenario.Topology{Population: &pop},
		Circuits: scenario.CircuitSet{
			Count:        4,
			TransferSize: 150 * units.Kilobyte,
		},
		Arms: []scenario.Arm{
			{Name: "circuitstart", Rebuild: true},
			{Name: "backtap", Transport: core.TransportOptions{Policy: "backtap"}, Rebuild: true},
		},
		CircuitEvents: scenario.CircuitEvents{ArrivalRate: 10, Arrivals: 6},
		RelayEvents: []scenario.RelayEvent{
			{At: 200 * sim.Millisecond, Relay: "relay-011", Kind: scenario.RelayFail},
			{At: 2 * sim.Second, Relay: "relay-011", Kind: scenario.RelayRecover},
		},
		Horizon: 600 * sim.Second,
	})
	if err != nil {
		panic(err)
	}
	for _, arm := range res.Arms {
		c := arm.Churn
		fmt.Printf("%s: built=%d torn_down=%d rebuilt=%d completed=%d\n",
			arm.Name, c.Built, c.TornDown, c.Rebuilt, arm.TTLB.Len())
	}
	// Output:
	// circuitstart: built=12 torn_down=12 rebuilt=2 completed=10
	// backtap: built=12 torn_down=12 rebuilt=2 completed=10
}

// A generated relay population homed behind a three-switch ring
// backbone: circuits cross shared trunks, and one trunk doubles its
// rate mid-run. The per-trunk stats show where the traffic went.
func Example_backbone() {
	bp := workload.DefaultBackboneParams(9, 3)
	bp.TrunkRate = units.Mbps(40)
	spec, err := workload.GenerateBackbone(bp)
	if err != nil {
		panic(err)
	}
	pop := bp.Relays
	res, err := scenario.Runner{Workers: 2}.Run(scenario.Scenario{
		Name:     "example-backbone",
		Seed:     42,
		Topology: scenario.Topology{Population: &pop, Fabric: &spec},
		Circuits: scenario.CircuitSet{
			Count:        6,
			TransferSize: 300 * units.Kilobyte,
			Arrival:      scenario.Arrival{Kind: scenario.ArriveUniform, Spread: 200 * time.Millisecond},
		},
		Arms: []scenario.Arm{
			{Name: "circuitstart"},
			{Name: "backtap", Transport: core.TransportOptions{Policy: "backtap"}},
		},
		Events: []scenario.LinkEvent{
			{At: sim.Second, TrunkA: "core-00", TrunkB: "core-01", Rate: units.Mbps(80)},
		},
		Horizon: 600 * sim.Second,
	})
	if err != nil {
		panic(err)
	}
	for _, arm := range res.Arms {
		var frames uint64
		for _, tr := range arm.Trunks() {
			frames += tr.Stats.CellsDelivered
		}
		fmt.Printf("%s: median %.3f s, %d trunks carried %d frames\n",
			arm.Name, arm.TTLB.Median(), len(arm.Trunks()), frames)
	}
	// Output:
	// circuitstart: median 0.947 s, 6 trunks carried 32638 frames
	// backtap: median 1.372 s, 6 trunks carried 32630 frames
}

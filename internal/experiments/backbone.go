package experiments

import (
	"fmt"
	"time"

	"circuitstart/internal/core"
	"circuitstart/internal/netem"
	"circuitstart/internal/scenario"
	"circuitstart/internal/sim"
	"circuitstart/internal/units"
)

// dumbbell declares the two-switch topology the shared, overload and
// faults ablations run on: switches west and east joined by one trunk,
// pairs guard/exit relay pairs (g-k homed west, e-k east) and circuits
// downloads assigned to the pairs round-robin, so circuit i's path
// client-i → g-k → e-k → server-i crosses the trunk exactly once. The
// circuits start uniformly within the first 200 ms; the caller adds
// the transfer sizes, arms and horizon.
func dumbbell(name string, seed int64, pairs, circuits int, trunk netem.TrunkConfig, access netem.AccessConfig) scenario.Scenario {
	spec := netem.GraphSpec{
		Switches: []netem.SwitchID{"east", "west"},
		Trunks:   []netem.TrunkSpec{{A: "west", B: "east", Config: trunk}},
		// Single-circuit runs name the endpoints without an index.
		Homes: map[netem.NodeID]netem.SwitchID{"client": "west", "server": "east"},
	}
	relays := make([]scenario.RelaySpec, 0, 2*pairs)
	for k := 0; k < pairs; k++ {
		g := netem.NodeID(fmt.Sprintf("g-%03d", k))
		e := netem.NodeID(fmt.Sprintf("e-%03d", k))
		relays = append(relays,
			scenario.RelaySpec{ID: g, Access: access},
			scenario.RelaySpec{ID: e, Access: access})
		spec.Homes[g] = "west"
		spec.Homes[e] = "east"
	}
	paths := make([][]netem.NodeID, circuits)
	for i := range paths {
		k := i % pairs
		paths[i] = []netem.NodeID{relays[2*k].ID, relays[2*k+1].ID}
		spec.Homes[netem.NodeID(fmt.Sprintf("client-%03d", i))] = "west"
		spec.Homes[netem.NodeID(fmt.Sprintf("server-%03d", i))] = "east"
	}
	return scenario.Scenario{
		Name:     name,
		Seed:     seed,
		Topology: scenario.Topology{Relays: relays, Fabric: &spec},
		Circuits: scenario.CircuitSet{
			Count:   circuits,
			Paths:   paths,
			Arrival: scenario.Arrival{Kind: scenario.ArriveUniform, Spread: 200 * time.Millisecond},
		},
		ClientAccess: access,
	}
}

// policyArms returns one arm per start-up policy, named after it.
func policyArms(policies ...string) []scenario.Arm {
	arms := make([]scenario.Arm, len(policies))
	for i, policy := range policies {
		arms[i] = scenario.Arm{Name: policy, Transport: core.TransportOptions{Policy: policy}}
	}
	return arms
}

// SharedBottleneck is the shared-trunk ablation: 8 circuits, each over
// its own guard/exit pair with 100 Mbit/s accesses, all crossing one
// 16 Mbit/s backbone trunk — the congestion structure a star cannot
// express, because on a star every circuit's bottleneck is an access
// link it owns alone. Each circuit's fair share is a fraction of its
// access rate, so all contention is on the trunk. The arms are
// CircuitStart and classic slow start; the Result carries the TTLB
// distributions and the trunk's pooled LinkStats per arm.
func SharedBottleneck(seed int64) scenario.Scenario {
	delay := 5 * time.Millisecond
	sc := dumbbell("ablation-shared-bottleneck", seed, 8, 8,
		netem.SymmetricTrunk(units.Mbps(16), delay, 0), netem.Symmetric(units.Mbps(100), delay, 0))
	sc.Circuits.TransferSize = 500 * units.Kilobyte
	sc.Arms = policyArms("circuitstart", "slowstart")
	sc.Horizon = 300 * sim.Second
	return sc
}

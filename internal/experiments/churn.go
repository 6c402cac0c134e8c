package experiments

import (
	"sort"
	"time"

	"circuitstart/internal/scenario"
	"circuitstart/internal/sim"
	"circuitstart/internal/units"
	"circuitstart/internal/workload"
)

// Churn is the churn ablation: the startup-dominated regime the
// paper's scheme targets, on the aggregate experiment's 40-relay
// population. 10 initial and 40 arriving 250 kB downloads (8 per
// second, Poisson) each run over a fresh circuit that is torn down on
// completion, and the two fattest relays fail at 1 s and 3 s for 3 s
// each; every affected download is rebuilt over a new path and pays a
// full circuit startup again. CircuitStart's fast compensated ramp is
// amortized over far less data per circuit than in the static Figure-1
// experiment, so its median win over plain BackTap should widen. The
// Result carries the TTLB distributions plus the per-arm ChurnStats.
//
// The failure schedule names relays of the seeded population the trial
// itself generates, so building it can fail as generation can.
func Churn(seed int64) (scenario.Scenario, error) {
	pop := workload.DefaultRelayParams(40)
	relays, err := workload.GenerateRelays(seed, pop)
	if err != nil {
		return scenario.Scenario{}, err
	}
	// Fail the fattest relays: bandwidth-weighted selection concentrates
	// circuits on them, so their loss forces the most rebuilds.
	sort.Slice(relays, func(i, j int) bool {
		if relays[i].Desc.Bandwidth != relays[j].Desc.Bandwidth {
			return relays[i].Desc.Bandwidth > relays[j].Desc.Bandwidth
		}
		return relays[i].Desc.ID < relays[j].Desc.ID
	})
	var events []scenario.RelayEvent
	for k, r := range relays[:2] {
		at := sim.Second + sim.Time(k)*2*sim.Second
		events = append(events,
			scenario.RelayEvent{At: at, Relay: r.Desc.ID, Kind: scenario.RelayFail},
			scenario.RelayEvent{At: at + 3*sim.Second, Relay: r.Desc.ID, Kind: scenario.RelayRecover},
		)
	}
	arms := policyArms("circuitstart", "backtap")
	for i := range arms {
		arms[i].Rebuild = true
	}
	return scenario.Scenario{
		Name:     "ablation-churn",
		Seed:     seed,
		Topology: scenario.Topology{Population: &pop},
		Circuits: scenario.CircuitSet{
			Count:        10,
			TransferSize: 250 * units.Kilobyte,
			Arrival:      scenario.Arrival{Kind: scenario.ArriveUniform, Spread: 200 * time.Millisecond},
		},
		Arms:          arms,
		CircuitEvents: scenario.CircuitEvents{ArrivalRate: 8, Arrivals: 40},
		RelayEvents:   events,
		Horizon:       600 * sim.Second,
	}, nil
}

package experiments

import (
	"time"

	"circuitstart/internal/faults"
	"circuitstart/internal/netem"
	"circuitstart/internal/scenario"
	"circuitstart/internal/sim"
	"circuitstart/internal/units"
)

// Faults is the resilience ablation: CircuitStart vs classic slow
// start, 8 downloads of 1.5 MB over 2 relay pairs behind a 16 Mbit/s
// trunk, while three fault classes fire in sequence. Guard g-001 takes
// Gilbert–Elliott burst loss from 2 s to 20 s, guard g-000 hangs (a
// blackhole with the relay still nominally "up") at 4 s for 6 s, and
// the trunk flaps at 12 s for 3 s, darkening every circuit at once.
// Endpoint stall detection and rebuild, with up to 8 rebuilds per
// download, is on in both arms, so every fault episode is survivable
// and the comparison isolates what the startup policy costs when
// circuits must repeatedly pay a fresh startup to recover. The headline
// metrics are median time-to-recovery, availability and
// goodput-under-fault.
func Faults(seed int64) scenario.Scenario {
	delay := 5 * time.Millisecond
	sc := dumbbell("ablation-faults", seed, 2, 8,
		netem.SymmetricTrunk(units.Mbps(16), delay, 0), netem.Symmetric(units.Mbps(50), delay, 0))
	sc.Circuits.TransferSize = 1500 * units.Kilobyte
	sc.Arms = policyArms("circuitstart", "slowstart")
	sc.Faults = faults.Plan{
		BurstLoss: []faults.BurstLoss{{
			Relay: "g-001", From: 2 * sim.Second, Until: 20 * sim.Second,
			PGoodBad: 0.01, PBadGood: 0.1, LossBad: 0.5,
		}},
		Degrades: []faults.Degrade{{
			Relay: "g-000", Mode: faults.DegradeHang,
			At: 4 * sim.Second, RecoverAfter: 6 * time.Second,
		}},
		Partitions: []faults.Partition{{
			TrunkA: "west", TrunkB: "east",
			At: 12 * sim.Second, HealAfter: 3 * time.Second,
		}},
		Recovery: faults.Recovery{Enabled: true, MaxRetries: 8, RTOMax: 5 * time.Second},
	}
	sc.Horizon = 120 * sim.Second
	return sc
}

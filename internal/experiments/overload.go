package experiments

import (
	"time"

	"circuitstart/internal/core"
	"circuitstart/internal/netem"
	"circuitstart/internal/relay"
	"circuitstart/internal/resource"
	"circuitstart/internal/scenario"
	"circuitstart/internal/sim"
	"circuitstart/internal/units"
)

// Overload is the overload ablation: an interactive-vs-bulk circuit
// mix crammed onto a few shared relays behind a saturated backbone
// trunk, with per-relay resource limits turned on. 8 interactive
// (50 kB) and 8 bulk (2 MB) circuits, sizes alternating, share 2 relay
// pairs behind a 16 Mbit/s trunk with a 256 kB queue. Each relay admits
// at most 6 circuits (kill-heaviest beyond that) and may hold at most
// 128 kB of cells, so admission kills and mid-run memory evictions
// both occur.
//
// The grid is CircuitStart vs classic slow start × FIFO vs Tor-style
// EWMA quiet-circuit scheduling, so the result separates what the
// startup policy buys from what the relay scheduler buys when the relay
// is the scarce resource. The headline metrics are Jain's fairness
// index over per-circuit TTLB, the resource managers' kill/rejection
// counters and the per-relay memory high-water mark.
func Overload(seed int64) scenario.Scenario {
	delay := 5 * time.Millisecond
	sc := dumbbell("ablation-overload", seed, 2, 16,
		netem.SymmetricTrunk(units.Mbps(16), delay, 256*units.Kilobyte), netem.Symmetric(units.Mbps(50), delay, 0))
	sc.Circuits.SizeMix = []units.DataSize{50 * units.Kilobyte, 2000 * units.Kilobyte}
	limits := resource.Limits{MaxCircuits: 6, MaxMemory: 128 * units.Kilobyte, Policy: resource.KillHeaviest}
	for _, policy := range []string{"circuitstart", "slowstart"} {
		for _, sched := range []string{"fifo", "ewma"} {
			sc.Arms = append(sc.Arms, scenario.Arm{
				Name:      policy + "/" + sched,
				Transport: core.TransportOptions{Policy: policy},
				Relay:     relay.Config{Scheduler: sched, Limits: limits},
			})
		}
	}
	sc.Horizon = 300 * sim.Second
	return sc
}

package workload

import (
	"fmt"
	"time"

	"circuitstart/internal/netem"
	"circuitstart/internal/units"
)

// BackboneKind selects how a backbone's switches are trunked together.
type BackboneKind int

const (
	// BackboneRing joins the switches in a cycle (each switch has two
	// trunks; traffic between opposite sides shares the shortest arc).
	BackboneRing BackboneKind = iota
	// BackboneLine joins consecutive switches only — the harshest
	// sharing: all east-west traffic funnels through interior trunks.
	BackboneLine
	// BackboneFull trunks every switch pair — contention moves back to
	// access links, useful as a near-star control.
	BackboneFull
)

func (k BackboneKind) String() string {
	switch k {
	case BackboneRing:
		return "ring"
	case BackboneLine:
		return "line"
	case BackboneFull:
		return "full"
	default:
		return fmt.Sprintf("BackboneKind(%d)", int(k))
	}
}

// BackboneParams shapes a routed backbone population: N synthetic
// relays spread round-robin behind K switches whose trunks are shared
// bottleneck candidates — the scenario family a star cannot express.
type BackboneParams struct {
	// Relays shapes the relay population (attached round-robin:
	// relay i homes to switch i mod Switches).
	Relays RelayParams
	// Switches is the number of backbone switches (K ≥ 1).
	Switches int
	// Kind selects the trunk mesh (default ring).
	Kind BackboneKind
	// TrunkRate is each trunk direction's capacity.
	TrunkRate units.DataRate
	// TrunkDelay is each trunk's one-way propagation delay.
	TrunkDelay time.Duration
	// TrunkQueueCap bounds each trunk direction's queue (0 = unbounded).
	TrunkQueueCap units.DataSize
	// TrunkLossProb drops frames independently per trunk direction.
	TrunkLossProb float64
}

// DefaultBackboneParams returns n relays behind k switches on a ring of
// 200 Mbit/s, 10 ms trunks — fast enough that light load runs clean,
// shared enough that concurrent circuits contend.
func DefaultBackboneParams(n, k int) BackboneParams {
	return BackboneParams{
		Relays:        DefaultRelayParams(n),
		Switches:      k,
		Kind:          BackboneRing,
		TrunkRate:     units.Mbps(200),
		TrunkDelay:    10 * time.Millisecond,
		TrunkQueueCap: units.Megabyte,
	}
}

// SwitchID names backbone switch i ("core-00", "core-01", …).
func SwitchID(i int) netem.SwitchID {
	return netem.SwitchID(fmt.Sprintf("core-%02d", i))
}

// GenerateBackbone renders the params into a netem.GraphSpec: K
// switches, the trunk mesh, and a home pin for every relay the
// population generator will name (relay i → switch i mod K). Clients
// and servers are left unpinned — they home by the fabric's
// deterministic ID hash, spreading load across the backbone. The spec
// is pure data: pass it to scenario.Topology.Fabric and every trial
// builds its own fabric from it.
func GenerateBackbone(p BackboneParams) (netem.GraphSpec, error) {
	if p.Switches <= 0 {
		return netem.GraphSpec{}, fmt.Errorf("workload: %d backbone switches", p.Switches)
	}
	if p.Relays.N <= 0 {
		return netem.GraphSpec{}, fmt.Errorf("workload: %d relays", p.Relays.N)
	}
	if p.Switches > 1 && p.TrunkRate <= 0 {
		return netem.GraphSpec{}, fmt.Errorf("workload: non-positive trunk rate")
	}

	spec := netem.GraphSpec{Homes: make(map[netem.NodeID]netem.SwitchID, p.Relays.N)}
	for i := 0; i < p.Switches; i++ {
		spec.Switches = append(spec.Switches, SwitchID(i))
	}
	cfg := netem.TrunkConfig{
		Rate: p.TrunkRate, Delay: p.TrunkDelay,
		QueueCap: p.TrunkQueueCap, LossProb: p.TrunkLossProb,
	}
	switch p.Kind {
	case BackboneLine:
		for i := 0; i+1 < p.Switches; i++ {
			spec.Trunks = append(spec.Trunks, netem.TrunkSpec{A: SwitchID(i), B: SwitchID(i + 1), Config: cfg})
		}
	case BackboneRing:
		for i := 0; i+1 < p.Switches; i++ {
			spec.Trunks = append(spec.Trunks, netem.TrunkSpec{A: SwitchID(i), B: SwitchID(i + 1), Config: cfg})
		}
		// Close the cycle (K = 2 is already fully connected by the line).
		if p.Switches > 2 {
			spec.Trunks = append(spec.Trunks, netem.TrunkSpec{A: SwitchID(p.Switches - 1), B: SwitchID(0), Config: cfg})
		}
	case BackboneFull:
		for i := 0; i < p.Switches; i++ {
			for j := i + 1; j < p.Switches; j++ {
				spec.Trunks = append(spec.Trunks, netem.TrunkSpec{A: SwitchID(i), B: SwitchID(j), Config: cfg})
			}
		}
	default:
		return netem.GraphSpec{}, fmt.Errorf("workload: unknown backbone kind %d", int(p.Kind))
	}

	for i := 0; i < p.Relays.N; i++ {
		spec.Homes[RelayID(i)] = SwitchID(i % p.Switches)
	}
	if err := spec.Validate(); err != nil {
		return netem.GraphSpec{}, err
	}
	return spec, nil
}

package scenario

import (
	"fmt"
	"time"

	"circuitstart/internal/core"
	"circuitstart/internal/directory"
	"circuitstart/internal/netem"
	"circuitstart/internal/sim"
	"circuitstart/internal/units"
	"circuitstart/internal/workload"
)

// members is what one trial attaches and builds, decided here once for
// both engines and both topology kinds: the engines only attach these
// relays and build these circuits on their own network type. Every
// generated digest rests on the names below — the seed streams
// "workload-relays" and "workload-paths", and the endpoint IDs — so
// they never change.
type members struct {
	// fabric is the scenario's backbone with TrainSize stamped onto a
	// deep copy of its trunks (the original is shared across parallel
	// workers); nil attaches everything to the star.
	fabric *netem.GraphSpec
	// relays are attached in order, TrainSize stamped on their access:
	// the explicit RelaySpecs, or the generated population.
	relays []RelaySpec
	// consensus samples paths on generated topologies (nil on explicit
	// ones).
	consensus *directory.Consensus
	// circuits are the initial circuits, in index order.
	circuits []core.CircuitSpec
	// proto carries what every circuit of the trial shares — client
	// access (defaults filled, TrainSize stamped), transport and probes —
	// with no endpoints or path.
	proto core.CircuitSpec
	// hops is the sampled path length on generated topologies, paths the
	// declared paths on explicit ones.
	hops  int
	paths [][]netem.NodeID
}

// trialMembers decides one trial's members from a validated scenario,
// the arm and the trial seed.
func trialMembers(sc *Scenario, arm Arm, seed int64) (*members, error) {
	m := &members{hops: sc.Circuits.Hops, paths: sc.Circuits.Paths}
	if spec := sc.Topology.Fabric; spec != nil {
		fs := spec.Clone()
		for i := range fs.Trunks {
			fs.Trunks[i].Config.TrainSize = sc.TrainSize
		}
		m.fabric = &fs
	}
	// The default client access is fast and, on a generated topology,
	// bounded by the population's queue cap; on an explicit one (the
	// figure setups) it is unbounded.
	access := sc.ClientAccess
	if access.UpRate == 0 {
		var queue units.DataSize
		if p := sc.Topology.Population; p != nil {
			queue = p.QueueCap
		}
		access = netem.Symmetric(units.Mbps(100), 5*time.Millisecond, queue)
	}
	access.TrainSize = sc.TrainSize
	m.proto = core.CircuitSpec{
		SourceAccess: access,
		SinkAccess:   access,
		Transport:    arm.Transport,
		TraceCwnd:    sc.Probes.TraceCwnd,
	}

	if p := sc.Topology.Population; p != nil {
		relays, err := workload.GenerateRelays(seed, *p)
		if err != nil {
			return nil, err
		}
		descs := make([]directory.Descriptor, len(relays))
		for i, r := range relays {
			descs[i] = r.Desc
			m.relays = append(m.relays, RelaySpec{ID: r.Desc.ID, Access: r.Access})
		}
		if m.consensus, err = directory.NewConsensus(descs); err != nil {
			return nil, err
		}
	} else {
		m.relays = append([]RelaySpec(nil), sc.Topology.Relays...)
	}
	for i := range m.relays {
		m.relays[i].Access.TrainSize = sc.TrainSize
	}

	var pathRNG *sim.RNG // explicit paths draw nothing
	if m.consensus != nil {
		pathRNG = sim.NewRNG(seed, "workload-paths")
	}
	m.circuits = make([]core.CircuitSpec, sc.Circuits.Count)
	for i := range m.circuits {
		spec, err := m.circuit(i, 0, pathRNG, nil)
		if err != nil {
			return nil, fmt.Errorf("circuit %d: %w", i, err)
		}
		if m.consensus == nil && sc.Circuits.Count == 1 {
			spec.Source, spec.Sink = "client", "server"
		}
		m.circuits[i] = spec
	}
	return m, nil
}

// circuit returns the spec of download index's circuit, built for the
// rebuild-th time (0 = its first circuit): a path sampled from the
// consensus with rng, avoiding excl, on a generated topology, or the
// declared path cycle on an explicit one (churn arrival indices run past
// Count). Ports cannot be re-attached, so a rebuild's endpoints carry
// its ordinal.
func (m *members) circuit(index, rebuild int, rng *sim.RNG, excl map[netem.NodeID]bool) (core.CircuitSpec, error) {
	spec := m.proto
	if m.consensus != nil {
		descs, err := m.consensus.SelectPathExcluding(rng, m.hops, excl)
		if err != nil {
			return core.CircuitSpec{}, err
		}
		spec.Relays = make([]netem.NodeID, len(descs))
		for i, d := range descs {
			spec.Relays[i] = d.ID
		}
	} else {
		spec.Relays = m.paths[index%len(m.paths)]
	}
	source := fmt.Sprintf("client-%03d", index)
	sink := fmt.Sprintf("server-%03d", index)
	if rebuild > 0 {
		source = fmt.Sprintf("%s.r%d", source, rebuild)
		sink = fmt.Sprintf("%s.r%d", sink, rebuild)
	}
	spec.Source, spec.Sink = netem.NodeID(source), netem.NodeID(sink)
	return spec, nil
}

// buildFabric is the trial's core.FabricBuilder: the stamped backbone,
// or the star.
func (m *members) buildFabric(clock *sim.Clock, rng *sim.RNG) netem.Fabric {
	if m.fabric == nil {
		return netem.NewStarFabric(clock)
	}
	return m.fabric.Build(clock, rng)
}

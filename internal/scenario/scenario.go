// Package scenario is the declarative experiment layer: a Scenario
// describes a complete experiment — topology, circuits, policy arms and
// instrumentation — as plain data, and a Runner expands it into
// independent trials, fans them out across a worker pool and aggregates
// the outcomes into a Result.
//
// Every figure and ablation of the paper is expressible as a Scenario
// (package experiments builds exactly those), but the API composes
// beyond them: arbitrary policy arms, explicit or generated topologies,
// Poisson arrivals, capacity-step events and replicated runs. Circuits
// are dynamic entities — CircuitEvents adds churn (downloads arriving
// over fresh circuits, teardown of completed ones) and RelayEvents
// schedules relay failures/recoveries with per-arm rebuild policies.
// With the churn fields zero a trial is static: its circuits live to the
// end and the clock stops when the last initial download settles. One
// single-clock engine runs both kinds of trial; Shards selects the
// sharded engine instead.
//
// Determinism is a hard guarantee: each trial builds its own
// core.Network from a seed-derived substream and the aggregation order
// is fixed by the trial index, so a Result is bit-identical regardless
// of the worker count or the order in which trials happen to finish.
package scenario

import (
	"fmt"
	"time"

	"circuitstart/internal/core"
	"circuitstart/internal/faults"
	"circuitstart/internal/netem"
	"circuitstart/internal/relay"
	"circuitstart/internal/sim"
	"circuitstart/internal/units"
	"circuitstart/internal/workload"
)

// RelaySpec pins one explicit relay of a Scenario topology.
type RelaySpec struct {
	ID     netem.NodeID
	Access netem.AccessConfig
}

// Topology describes a Scenario's relay population and the fabric it
// attaches to. Exactly one of Relays (an explicit, fixed topology — the
// single-circuit figure setups) or Population (a generated Tor-like
// population — the aggregate experiments) must be set; Fabric
// optionally composes with either.
type Topology struct {
	// Relays lists explicit relays, attached in order.
	Relays []RelaySpec
	// Population generates a seeded synthetic relay population with a
	// bandwidth-weighted consensus for path sampling.
	Population *workload.RelayParams
	// Fabric, when set, replaces the default star with a routed
	// backbone built from this spec (switches, trunk links, node
	// homes — see workload.GenerateBackbone). Every trial builds its
	// own fabric from the spec, preserving the worker-count
	// determinism guarantee. Nodes the spec does not pin home to a
	// deterministic hash of their ID.
	Fabric *netem.GraphSpec
}

// ArrivalKind selects a circuit arrival process.
type ArrivalKind int

const (
	// ArriveTogether starts every transfer at t = 0.
	ArriveTogether ArrivalKind = iota
	// ArriveUniform staggers starts uniformly in [0, Spread).
	ArriveUniform
	// ArrivePoisson draws successive inter-arrival gaps from
	// Exp(1/Rate) — an open-loop arrival process.
	ArrivePoisson
)

// Arrival describes when each circuit's transfer begins.
type Arrival struct {
	Kind ArrivalKind
	// Spread is the uniform stagger window (ArriveUniform).
	Spread time.Duration
	// Rate is the mean arrival rate per second (ArrivePoisson).
	Rate float64
}

// CircuitSet describes the circuits of one trial.
type CircuitSet struct {
	// Count is the number of concurrent circuits. Zero defaults to
	// len(Paths) on explicit topologies.
	Count int
	// Paths fixes each circuit's relay sequence (required with an
	// explicit Topology). A single path is shared by all Count
	// circuits; otherwise len(Paths) must equal Count. Leave empty on
	// generated topologies: paths are then sampled bandwidth-weighted
	// from the population consensus, as Tor selects them.
	Paths [][]netem.NodeID
	// Hops is the sampled path length on generated topologies
	// (default 3).
	Hops int
	// TransferSize is the fixed transfer per circuit.
	TransferSize units.DataSize
	// SizeMix, when set, assigns transfer sizes round-robin by circuit
	// index — circuit i transfers SizeMix[i mod len(SizeMix)]. The
	// overload experiments use it to interleave interactive and bulk
	// circuits on one bottleneck. When set, TransferSize may be zero.
	SizeMix []units.DataSize
	// SizeDist, when set, draws per-circuit transfer sizes from a
	// distribution (workload.SizeDist) instead of a scalar. Validation
	// materializes it: the fixed kind just sets TransferSize (keeping
	// that path byte-identical), the stochastic kinds sample Count
	// sizes from the scenario seed's dedicated "workload-sizes" stream
	// into SizeMix. Mutually exclusive with an explicit SizeMix; the
	// draw depends only on (Seed, Count, dist), never on workers, arms
	// or replications.
	SizeDist *workload.SizeDist
	// Download runs transfers in the backward direction
	// (server → client through the onion).
	Download bool
	// Arrival is the start-time process (default: all at t = 0).
	Arrival Arrival
}

// Arm is one policy configuration to run the scenario under. Every arm
// sees the identical topology and workload (same seed), so outcome
// differences are attributable to the transport configuration alone.
type Arm struct {
	// Name labels the arm in the Result (e.g. the policy name).
	Name string
	// Transport configures every circuit hop under this arm.
	Transport core.TransportOptions
	// Rebuild, in scenarios with RelayEvents, rebuilds a circuit that
	// lost a relay to failure: a fresh path is sampled from the
	// consensus (avoiding failed relays) and the download restarts from
	// scratch — paying a full circuit startup again. Requires a
	// generated Population topology.
	Rebuild bool
	// Relay configures every relay's circuit scheduler and resource
	// limits under this arm. The zero value is the byte-identical
	// default: FIFO scheduling, no caps.
	Relay relay.Config
}

// Probes selects per-circuit instrumentation.
type Probes struct {
	// TraceCwnd records each source's congestion window over time
	// (memory-heavy; the single-circuit figures need it).
	TraceCwnd bool
}

// LinkEvent is a scheduled mid-run capacity change — the
// dynamic-network extension experiments. It targets either an explicit
// relay's access links (Relay, explicit topologies only) or both
// directions of a backbone trunk (TrunkA/TrunkB, any topology with a
// Fabric), so capacity steps can hit shared bottlenecks mid-run.
type LinkEvent struct {
	At sim.Time
	// Relay names an explicit relay whose access links step to Rate.
	Relay netem.NodeID
	// TrunkA, TrunkB name a Fabric trunk instead; both directions step.
	TrunkA, TrunkB netem.SwitchID
	Rate           units.DataRate
}

// trunk reports whether the event targets a backbone trunk.
func (ev LinkEvent) trunk() bool { return ev.TrunkA != "" || ev.TrunkB != "" }

// Scenario declaratively describes one experiment. It is plain data:
// build it literally, or start from an adapter in package experiments
// and tweak. Run it with a Runner.
type Scenario struct {
	// Name labels the scenario in summaries.
	Name string
	// Seed drives all randomness. Replication r > 0 derives an
	// independent substream; replication 0 uses Seed itself.
	Seed int64
	// Topology is the relay population (explicit or generated).
	Topology Topology
	// Circuits describes the workload.
	Circuits CircuitSet
	// Arms are the policy configurations to compare. At least one.
	Arms []Arm
	// ClientAccess configures source/sink attachment. Zero selects a
	// fast 100 Mbit/s, 5 ms access; on a generated topology its queues
	// are bounded by the population's QueueCap (the workload default),
	// on an explicit topology they are unbounded (the figure setups).
	ClientAccess netem.AccessConfig
	// Horizon bounds each trial's virtual time.
	Horizon sim.Time
	// RunFullHorizon keeps the clock running to Horizon even after all
	// transfers complete, so cwnd traces include the post-convergence
	// tail (explicit topologies only).
	RunFullHorizon bool
	// Replications repeats every arm with an independent seed
	// substream (0 = 1). Arm distributions pool all replications.
	Replications int
	// Events schedules mid-run link-capacity changes (explicit
	// topologies only).
	Events []LinkEvent
	// CircuitEvents configures circuit churn: Poisson arrivals of new
	// downloads over fresh circuits, teardown of completed circuits,
	// and scheduled teardowns of initial circuits. The zero value keeps
	// the trial static: every initial circuit lives to the end.
	CircuitEvents CircuitEvents
	// RelayEvents schedules relay failures and recoveries. Circuits
	// crossing a failed relay are torn down at the failure instant;
	// arms with Rebuild set give the affected downloads fresh circuits.
	RelayEvents []RelayEvent
	// Faults is the declarative fault-injection plan: burst loss, delay
	// jitter, link flaps, trunk partitions, relay degradation, and the
	// endpoint-side stall-detection/recovery configuration. The zero
	// value injects nothing and keeps seeded outputs byte-identical;
	// any non-zero plan turns the circuit lifecycle on, as churn does
	// (see internal/faults).
	Faults faults.Plan
	// TrainSize caps cell-train coalescing on every link of every trial
	// — access links and backbone trunks alike. Values ≤ 1 keep the
	// byte-identical one-event-per-cell pipeline; larger values batch
	// back-to-back queued cells into single link events, trading event
	// count for coarser link interleaving (see netem.LinkConfig).
	TrainSize int
	// Shards, when positive, runs every trial on the sharded
	// conservative-lookahead engine: the Fabric is partitioned into at
	// most Shards contiguous regions (netem.PartitionGraph), each
	// advancing on its own clock and goroutine, coupled only through
	// cut-trunk handoffs. Results are byte-identical under ANY plan —
	// whichever trunks a shard count cuts or leaves local, Shards = 1
	// included, because trunk deliveries that tie fire in lane order on
	// every clock (TestShardedPlanInvariance) — but not to the
	// Shards = 0 single-clock engine, whose control-plane timing (early
	// stop, teardown instants), start streams and tie order (scheduling
	// history, not lanes) differ. Requires a Fabric topology; see
	// validateSharded for the features the sharded engine rejects.
	Shards int
	// Probes selects instrumentation.
	Probes Probes
}

// Validate returns the error Run would return for sc before
// simulating anything. sc itself is left unchanged.
func (sc Scenario) Validate() error { return sc.validate() }

// validate checks the scenario and fills defaulted fields in place.
func (sc *Scenario) validate() error {
	explicit := len(sc.Topology.Relays) > 0
	generated := sc.Topology.Population != nil
	if explicit == generated {
		return fmt.Errorf("scenario: topology needs exactly one of explicit Relays or a generated Population")
	}
	if len(sc.Arms) == 0 {
		return fmt.Errorf("scenario: no arms")
	}
	seen := make(map[string]bool, len(sc.Arms))
	for i, a := range sc.Arms {
		if a.Name == "" {
			return fmt.Errorf("scenario: arm %d has no name", i)
		}
		if seen[a.Name] {
			return fmt.Errorf("scenario: duplicate arm %q", a.Name)
		}
		seen[a.Name] = true
		if err := a.Relay.Validate(); err != nil {
			return fmt.Errorf("scenario: arm %q: %w", a.Name, err)
		}
	}
	if sc.Horizon <= 0 {
		return fmt.Errorf("scenario: non-positive horizon")
	}
	if sc.TrainSize < 0 {
		return fmt.Errorf("scenario: negative train size %d", sc.TrainSize)
	}
	if sc.Replications < 0 {
		return fmt.Errorf("scenario: negative replications")
	}
	if sc.Replications == 0 {
		sc.Replications = 1
	}
	if d := sc.Circuits.SizeDist; d != nil {
		if len(sc.Circuits.SizeMix) > 0 {
			return fmt.Errorf("scenario: SizeDist and SizeMix are mutually exclusive")
		}
		if sc.Circuits.TransferSize != 0 {
			return fmt.Errorf("scenario: SizeDist and TransferSize are mutually exclusive")
		}
		if err := d.Validate(); err != nil {
			return fmt.Errorf("scenario: %w", err)
		}
		if d.Kind == workload.SizeFixed {
			sc.Circuits.TransferSize = d.Size
		} else {
			n := sc.Circuits.Count
			if n == 0 {
				n = len(sc.Circuits.Paths)
			}
			if n <= 0 {
				return fmt.Errorf("scenario: SizeDist %q needs a positive circuit count", d.Kind)
			}
			mix, err := d.Sample(sc.Seed, n)
			if err != nil {
				return fmt.Errorf("scenario: %w", err)
			}
			sc.Circuits.SizeMix = mix
		}
	}
	if sc.Circuits.TransferSize <= 0 && len(sc.Circuits.SizeMix) == 0 {
		return fmt.Errorf("scenario: transfer size %v", sc.Circuits.TransferSize)
	}
	for i, s := range sc.Circuits.SizeMix {
		if s <= 0 {
			return fmt.Errorf("scenario: size mix entry %d is %v", i, s)
		}
	}
	if sc.Topology.Fabric != nil {
		if err := sc.Topology.Fabric.Validate(); err != nil {
			return fmt.Errorf("scenario: %w", err)
		}
	}
	// Access configurations are validated here — the same rules NewLink
	// enforces by panic — so a bad grid point in a scripted sweep fails
	// its trial cleanly instead of crashing the worker pool.
	for i, r := range sc.Topology.Relays {
		if err := r.Access.Validate(); err != nil {
			return fmt.Errorf("scenario: relay %d (%q): %w", i, r.ID, err)
		}
	}
	if sc.ClientAccess.UpRate != 0 || sc.ClientAccess.DownRate != 0 {
		if err := sc.ClientAccess.Validate(); err != nil {
			return fmt.Errorf("scenario: client access: %w", err)
		}
	}
	for i, ev := range sc.Events {
		if ev.Rate <= 0 {
			return fmt.Errorf("scenario: event %d rate %v", i, ev.Rate)
		}
		if (ev.Relay != "") == ev.trunk() {
			return fmt.Errorf("scenario: event %d needs exactly one of Relay or TrunkA/TrunkB", i)
		}
		if ev.trunk() {
			if ev.TrunkA == "" || ev.TrunkB == "" {
				return fmt.Errorf("scenario: event %d names only one trunk endpoint", i)
			}
			if sc.Topology.Fabric == nil {
				return fmt.Errorf("scenario: event %d targets trunk %q-%q but the topology has no fabric", i, ev.TrunkA, ev.TrunkB)
			}
			if !sc.Topology.Fabric.HasTrunk(ev.TrunkA, ev.TrunkB) {
				return fmt.Errorf("scenario: event %d names unknown trunk %q-%q", i, ev.TrunkA, ev.TrunkB)
			}
		}
	}
	switch sc.Circuits.Arrival.Kind {
	case ArriveTogether:
	case ArriveUniform:
		if sc.Circuits.Arrival.Spread <= 0 {
			return fmt.Errorf("scenario: uniform arrival needs a positive spread")
		}
	case ArrivePoisson:
		if sc.Circuits.Arrival.Rate <= 0 {
			return fmt.Errorf("scenario: poisson arrival needs a positive rate")
		}
	default:
		return fmt.Errorf("scenario: unknown arrival kind %d", sc.Circuits.Arrival.Kind)
	}
	if explicit {
		if len(sc.Circuits.Paths) == 0 {
			return fmt.Errorf("scenario: explicit topology needs explicit circuit paths")
		}
		if sc.Circuits.Count == 0 {
			sc.Circuits.Count = len(sc.Circuits.Paths)
		}
		if len(sc.Circuits.Paths) != 1 && len(sc.Circuits.Paths) != sc.Circuits.Count {
			return fmt.Errorf("scenario: %d paths for %d circuits", len(sc.Circuits.Paths), sc.Circuits.Count)
		}
		ids := make(map[netem.NodeID]bool, len(sc.Topology.Relays))
		for _, r := range sc.Topology.Relays {
			if ids[r.ID] {
				return fmt.Errorf("scenario: duplicate relay %q", r.ID)
			}
			ids[r.ID] = true
		}
		for i, path := range sc.Circuits.Paths {
			if len(path) == 0 {
				return fmt.Errorf("scenario: empty path %d", i)
			}
			for _, id := range path {
				if !ids[id] {
					return fmt.Errorf("scenario: path %d names unknown relay %q", i, id)
				}
			}
		}
		for _, ev := range sc.Events {
			if ev.Relay != "" && !ids[ev.Relay] {
				return fmt.Errorf("scenario: event names unknown relay %q", ev.Relay)
			}
		}
	} else {
		if len(sc.Circuits.Paths) != 0 {
			return fmt.Errorf("scenario: generated topology samples its paths; drop Circuits.Paths")
		}
		if sc.Circuits.Count <= 0 {
			return fmt.Errorf("scenario: %d circuits", sc.Circuits.Count)
		}
		if n := sc.Topology.Population.N; n <= 0 {
			return fmt.Errorf("scenario: %d relays in the population", n)
		}
		if sc.Circuits.Hops < 0 {
			return fmt.Errorf("scenario: %d hops per circuit", sc.Circuits.Hops)
		}
		if sc.Circuits.Hops == 0 {
			sc.Circuits.Hops = 3
		}
		for _, ev := range sc.Events {
			if ev.Relay != "" {
				return fmt.Errorf("scenario: relay link events need an explicit topology")
			}
		}
		if sc.RunFullHorizon {
			return fmt.Errorf("scenario: RunFullHorizon needs an explicit topology")
		}
	}
	if sc.Circuits.Count <= 0 {
		return fmt.Errorf("scenario: %d circuits", sc.Circuits.Count)
	}
	if err := sc.validateChurn(); err != nil {
		return err
	}
	return sc.validateSharded()
}

// validateSharded checks the fields a sharded (Shards > 0) scenario may
// use. The rejections all protect the byte-identical-at-any-shard-count
// contract: random link loss consumes a shared per-shard RNG stream in
// partition-dependent order; link events, resource limits and
// suspect-driven recovery mutate state across shards mid-window, which
// only the barrier may do.
func (sc *Scenario) validateSharded() error {
	if sc.Shards == 0 {
		return nil
	}
	if sc.Shards < 0 {
		return fmt.Errorf("scenario: %d shards", sc.Shards)
	}
	if sc.Topology.Fabric == nil {
		return fmt.Errorf("scenario: sharded execution needs a routed Fabric topology to partition")
	}
	for i, t := range sc.Topology.Fabric.Trunks {
		if t.Config.LossProb != 0 {
			return fmt.Errorf("scenario: sharded execution cannot use random trunk loss (trunk %d); use a Faults burst-loss plan", i)
		}
	}
	if sc.ClientAccess.LossProb != 0 {
		return fmt.Errorf("scenario: sharded execution cannot use random client-access loss; use a Faults burst-loss plan")
	}
	for i, r := range sc.Topology.Relays {
		if r.Access.LossProb != 0 {
			return fmt.Errorf("scenario: sharded execution cannot use random access loss (relay %d, %q); use a Faults burst-loss plan", i, r.ID)
		}
	}
	if len(sc.Events) > 0 {
		return fmt.Errorf("scenario: link events are not supported on the sharded engine")
	}
	for i, a := range sc.Arms {
		if a.Relay.Limits.Enabled() {
			return fmt.Errorf("scenario: arm %d (%q) sets resource limits, which the sharded engine does not support", i, a.Name)
		}
	}
	if sc.Faults.Recovery.Enabled {
		return fmt.Errorf("scenario: endpoint recovery is not supported on the sharded engine")
	}
	return nil
}

// RelayIDs returns the topology's relay IDs in deterministic order —
// explicit declaration order, or the generated population's index
// order. Fault presets are rendered against this list.
func (sc *Scenario) RelayIDs() []netem.NodeID {
	if p := sc.Topology.Population; p != nil {
		ids := make([]netem.NodeID, p.N)
		for i := range ids {
			ids[i] = workload.RelayID(i)
		}
		return ids
	}
	ids := make([]netem.NodeID, len(sc.Topology.Relays))
	for i, r := range sc.Topology.Relays {
		ids[i] = r.ID
	}
	return ids
}

// sizeFor returns circuit i's transfer size: the round-robin SizeMix
// entry when a mix is declared, TransferSize otherwise.
func (cs CircuitSet) sizeFor(i int) units.DataSize {
	if len(cs.SizeMix) > 0 {
		return cs.SizeMix[i%len(cs.SizeMix)]
	}
	return cs.TransferSize
}

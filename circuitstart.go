// Package circuitstart is a from-scratch reproduction of
//
//	Döpmann & Tschorsch, "CircuitStart: A Slow Start For Multi-Hop
//	Anonymity Systems", SIGCOMM 2018 Posters and Demos.
//
// It provides a deterministic discrete-event simulation of a Tor-like
// anonymity overlay — fixed-size cells, layered onion encryption,
// bandwidth-weighted path selection, and a per-hop window-based
// transport in the style of BackTap (NSDI'16) — together with the
// paper's contribution: the CircuitStart start-up scheme, which ramps a
// circuit's congestion windows with feedback-clocked doubling rounds
// and compensates overshooting by measuring the successor's drain rate.
//
// Quick start:
//
//	n := circuitstart.NewNetwork(42)
//	n.MustAddRelay("r1", circuitstart.Symmetric(circuitstart.Mbps(8), 5*time.Millisecond, 0))
//	c := n.MustBuildCircuit(circuitstart.CircuitSpec{ ... })
//	c.Transfer(1*circuitstart.Megabyte, nil)
//	n.Run()
//	ttlb, _ := c.TTLB()
//
// Fig1CwndTrace and Fig1CDF, run on a Runner, regenerate the paper's
// Figure 1; the ablations and extensions run from the command line
// ('circuitsim ablation -name …'). EXPERIMENTS.md is the reproduction
// report and DESIGN.md the system inventory.
//
// # Declarative scenarios
//
// A Scenario describes an experiment as plain data — topology
// (explicit relays, or a generated Tor-like population, optionally
// behind a routed backbone), circuits (count, paths, transfer size and
// direction, arrival process), one policy arm per transport
// configuration, churn, faults and instrumentation — and a Runner
// executes its trials on a worker pool. Each (arm, replication) trial
// runs on its own Network with a seed-derived substream, so a
// ScenarioResult is bit-identical for any worker count. ExampleRunner
// and ExampleRunner_policies show two-arm and four-arm comparisons.
//
// # Parameter sweeps
//
// A Sweep crosses a base Scenario with named Dimensions; a SweepEngine
// executes every grid point on the parallel runner and streams the
// per-point aggregates into sinks in grid order, so output bytes are
// identical for any worker count. ExampleSweepEngine runs the paper's
// γ ablation as a one-dimensional grid; 'circuitsim sweep' and
// 'circuitsim serve' drive grids from versioned JSON specs.
package circuitstart

import (
	"circuitstart/internal/core"
	"circuitstart/internal/experiments"
	"circuitstart/internal/faults"
	"circuitstart/internal/metrics"
	"circuitstart/internal/model"
	"circuitstart/internal/netem"
	"circuitstart/internal/relay"
	"circuitstart/internal/resource"
	"circuitstart/internal/scenario"
	"circuitstart/internal/sim"
	"circuitstart/internal/sweep"
	"circuitstart/internal/units"
	"circuitstart/internal/workload"
)

// Core simulation types.
type (
	// Network is an overlay on a topology fabric (star by default):
	// attach relays, build circuits.
	Network = core.Network
	// Circuit is an onion-encrypted multi-hop path with per-hop
	// window-based transport.
	Circuit = core.Circuit
	// CircuitSpec describes one circuit to build.
	CircuitSpec = core.CircuitSpec
	// TransportOptions selects the start-up policy and congestion
	// parameters for a circuit's hops.
	TransportOptions = core.TransportOptions
	// NodeID names a node in the overlay.
	NodeID = netem.NodeID
	// AccessConfig describes a node's attachment to the fabric.
	AccessConfig = netem.AccessConfig
	// Fabric is the pluggable topology substrate.
	Fabric = netem.Fabric
	// SwitchID names a backbone switch of a routed fabric.
	SwitchID = netem.SwitchID
	// GraphSpec is the data description of a routed backbone
	// (switches, trunks, node homes) for Topology.Fabric.
	GraphSpec = netem.GraphSpec
	// TrunkSpec declares one backbone trunk of a GraphSpec.
	TrunkSpec = netem.TrunkSpec
	// TrunkConfig describes a trunk's per-direction link parameters.
	TrunkConfig = netem.TrunkConfig
	// BackboneParams shapes a generated backbone population
	// (N relays behind K trunked switches).
	BackboneParams = workload.BackboneParams
	// DataSize is an amount of data in bytes.
	DataSize = units.DataSize
	// DataRate is a transmission rate in bits per second.
	DataRate = units.DataRate
	// Time is an instant in virtual time.
	Time = sim.Time
	// Series is a time series of measurements (e.g. cwnd over time).
	Series = metrics.Series
	// Distribution accumulates samples and answers quantile queries.
	Distribution = metrics.Distribution
	// Path is the analytic model of a circuit's node sequence.
	Path = model.Path
)

// Figure 1 types.
type (
	// CwndTraceParams configures a Figure-1 upper-panel run.
	CwndTraceParams = experiments.CwndTraceParams
	// CwndTraceResult is one single-circuit cwnd trace.
	CwndTraceResult = experiments.CwndTraceResult
)

// Relay resource management and scheduling, set per Arm.
type (
	// RelayConfig selects a relay's uplink scheduler and resource
	// limits; the zero value is the byte-identical unlimited/FIFO
	// default.
	RelayConfig = relay.Config
	// ResourceLimits caps a relay's circuits and buffered memory and
	// names the policy applied at the cap.
	ResourceLimits = resource.Limits
	// ResourceStats pools a relay population's admission, rejection,
	// kill and memory high-water counters.
	ResourceStats = resource.Stats
	// KillPolicy decides what happens when a resource limit is hit.
	KillPolicy = resource.Policy
)

// The values of ResourceLimits.Policy, which a caller of the facade
// cannot name otherwise.
const (
	// KillRejectNew refuses new circuits at the circuit cap.
	KillRejectNew = resource.RejectNew
	// KillOldest evicts the longest-admitted circuit to make room.
	KillOldest = resource.KillOldest
	// KillHeaviest evicts the circuit holding the most buffered cells.
	KillHeaviest = resource.KillHeaviest
)

// Declarative experiment API: a Scenario describes an experiment as
// data, a Runner executes its trials on a worker pool. See the package
// comment's "Declarative scenarios" section.
type (
	// Scenario declaratively describes one experiment.
	Scenario = scenario.Scenario
	// Topology is a scenario's relay population (explicit or generated).
	Topology = scenario.Topology
	// RelaySpec pins one explicit relay of a Topology.
	RelaySpec = scenario.RelaySpec
	// CircuitSet describes a scenario's circuits and workload.
	CircuitSet = scenario.CircuitSet
	// Arrival describes when each circuit's transfer begins.
	Arrival = scenario.Arrival
	// Arm is one policy configuration to run a scenario under.
	Arm = scenario.Arm
	// Probes selects per-circuit instrumentation.
	Probes = scenario.Probes
	// LinkEvent schedules a mid-run capacity change on a relay's
	// access links or on a backbone trunk.
	LinkEvent = scenario.LinkEvent
	// CircuitEvents configures circuit churn: Poisson arrivals of new
	// downloads over fresh circuits, teardown of completed circuits,
	// and scheduled teardowns of initial circuits.
	CircuitEvents = scenario.CircuitEvents
	// TeardownEvent schedules the teardown of one initial circuit.
	TeardownEvent = scenario.TeardownEvent
	// RelayEvent schedules a relay failure or recovery.
	RelayEvent = scenario.RelayEvent
	// ChurnStats aggregates an arm's circuit-lifecycle activity.
	ChurnStats = scenario.ChurnStats
	// FaultPlan declares a scenario's fault schedule as data: burst
	// loss, jitter, link flaps, trunk partitions, relay degradation,
	// and the endpoint recovery policy. The zero value injects nothing
	// and keeps seeded outputs byte-identical.
	FaultPlan = faults.Plan
	// FaultRecovery configures endpoint stall detection and circuit
	// rebuild (retry budget, backoff bounds).
	FaultRecovery = faults.Recovery
	// ResilienceStats aggregates an arm's fault-recovery activity:
	// stalls, recoveries, the time-to-recovery distribution, retries,
	// abandons, availability and goodput-under-fault.
	ResilienceStats = scenario.ResilienceStats
	// NetStats aggregates fabric drop counters and trunk stats per arm.
	NetStats = scenario.NetStats
	// TrunkStat is one trunk link's pooled counters.
	TrunkStat = scenario.TrunkStat
	// Runner executes a Scenario across a worker pool.
	Runner = scenario.Runner
	// ScenarioResult is a Runner's aggregated outcome.
	ScenarioResult = scenario.Result
	// ArmResult aggregates one arm across all replications.
	ArmResult = scenario.ArmResult
	// CircuitOutcome is one circuit's outcome in one trial.
	CircuitOutcome = scenario.CircuitOutcome
	// RelayParams shapes a generated relay population.
	RelayParams = workload.RelayParams
	// SizeDist draws per-circuit transfer sizes from a distribution
	// (fixed, lognormal, bounded-Pareto), seeded by the scenario seed.
	SizeDist = workload.SizeDist
)

// Parameter-sweep engine: a Sweep crosses a base Scenario with named
// Dimensions and executes every grid point on the parallel runner,
// streaming per-point aggregates into sinks. See the package comment's
// "Parameter sweeps" section.
type (
	// Sweep declares a parameter grid over a base Scenario.
	Sweep = sweep.Sweep
	// Dimension is one named axis of a sweep grid.
	Dimension = sweep.Dimension
	// DimensionValue is one labelled point on a dimension's axis.
	DimensionValue = sweep.Value
	// SweepEngine executes a Sweep across a worker pool, emitting
	// results in grid order for any worker count.
	SweepEngine = sweep.Engine
)

// ErrSweepStopped is returned by SweepEngine.Run when its Stop hook
// tripped mid-grid: the rows emitted before the stop are a valid
// grid-order prefix. Callers that set Stop test for it with errors.Is.
var ErrSweepStopped = sweep.ErrStopped

// The values of BackboneParams.Kind, which a caller of the facade
// cannot name otherwise.
const (
	// BackboneRing joins the switches in a cycle.
	BackboneRing = workload.BackboneRing
	// BackboneLine joins consecutive switches only.
	BackboneLine = workload.BackboneLine
	// BackboneFull trunks every switch pair.
	BackboneFull = workload.BackboneFull
)

// The values of RelayEvent.Kind, which a caller of the facade cannot
// name otherwise.
const (
	// RelayFail takes a relay out of service (frames blackholed).
	RelayFail = scenario.RelayFail
	// RelayRecover puts a failed relay back in service.
	RelayRecover = scenario.RelayRecover
)

// The values of Arrival.Kind, which a caller of the facade cannot name
// otherwise.
const (
	// ArriveTogether starts every transfer at t = 0 (default).
	ArriveTogether = scenario.ArriveTogether
	// ArriveUniform staggers starts uniformly in [0, Spread).
	ArriveUniform = scenario.ArriveUniform
	// ArrivePoisson draws inter-arrival gaps from Exp(1/Rate).
	ArrivePoisson = scenario.ArrivePoisson
)

// Constructors and helpers re-exported from the internal packages.
var (
	// NewNetwork creates a star overlay whose randomness derives from
	// seed.
	NewNetwork = core.NewNetwork
	// Symmetric builds an AccessConfig with equal up/down rates.
	Symmetric = netem.Symmetric
	// GenerateBackbone renders BackboneParams into a GraphSpec.
	GenerateBackbone = workload.GenerateBackbone
	// DefaultBackboneParams returns n relays behind k ring switches.
	DefaultBackboneParams = workload.DefaultBackboneParams
	// DefaultRelayParams returns the Tor-flavoured population used by
	// the paper's aggregate experiment.
	DefaultRelayParams = workload.DefaultRelayParams
	// Mbps constructs a DataRate from megabits per second.
	Mbps = units.Mbps

	// Fig1CwndTrace regenerates the paper's Figure 1 upper panels.
	Fig1CwndTrace = experiments.Fig1CwndTrace
	// DefaultCwndTraceParams mirrors the paper's trace setup.
	DefaultCwndTraceParams = experiments.DefaultCwndTraceParams
	// Fig1CDF is the paper's Figure 1 lower panel, the 50-circuit
	// aggregate experiment, as a Scenario to edit and run.
	Fig1CDF = experiments.Fig1CDF
	// AblationGamma sweeps the γ exit threshold.
	AblationGamma = experiments.AblationGamma
)

// Data size units.
const (
	Kilobyte = units.Kilobyte
	Megabyte = units.Megabyte
)

// Second is one second of virtual time.
const Second = sim.Second

// Startup policy names accepted by TransportOptions.Policy.
const (
	// PolicyCircuitStart is the paper's scheme (default).
	PolicyCircuitStart = "circuitstart"
	// PolicyBackTap is plain BackTap — the paper's "without
	// CircuitStart" baseline (Vegas only, no ramp-up).
	PolicyBackTap = "backtap"
	// PolicySlowStart is a classic ACK-clocked slow start with halving.
	PolicySlowStart = "slowstart"
	// PolicyCircuitStartHalve is CircuitStart's rounds with the
	// traditional halving exit (compensation ablation).
	PolicyCircuitStartHalve = "circuitstart-halve"
	// PolicySlowStartCompensated is ACK clocking with the measured
	// compensation (clocking ablation).
	PolicySlowStartCompensated = "slowstart-compensated"
	// PolicyFixed pins a static window (Tor-SENDME-like baseline).
	PolicyFixed = "fixed"
)

// Package experiments declares one scenario per figure of the paper
// and per ablation listed in DESIGN.md. An ablation that is a single
// multi-arm scenario is a function of the seed alone (SharedBottleneck,
// Churn, Overload, Faults, DynamicRestart): it returns the
// scenario.Scenario at the values its published table uses, and a
// variant is an edit of that value, not a second parameter schema. The
// figures and the trace sweeps, whose tables derive statistics from
// each arm's cwnd trace, run their scenarios on a scenario.Runner and
// reshape the Result into the figure's result struct.
package experiments

import (
	"fmt"
	"time"

	"circuitstart/internal/core"
	"circuitstart/internal/metrics"
	"circuitstart/internal/netem"
	"circuitstart/internal/scenario"
	"circuitstart/internal/sim"
	"circuitstart/internal/units"
	"circuitstart/internal/workload"
)

// CwndTraceParams configures the single-circuit cwnd-over-time runs of
// Figure 1's upper panels.
type CwndTraceParams struct {
	// Seed drives key generation (the scenario itself is deterministic).
	Seed int64
	// Hops is the number of relays on the circuit (paper: 3).
	Hops int
	// BottleneckHop places the slow relay: 1 = first relay ("distance
	// to bottleneck: 1 hop") … Hops = exit relay.
	BottleneckHop int
	// BottleneckRate and FastRate set the slow relay's and every other
	// node's access capacity.
	BottleneckRate, FastRate units.DataRate
	// AccessDelay is each node's one-way access propagation delay.
	AccessDelay time.Duration
	// Transport selects the start-up policy under test.
	Transport core.TransportOptions
	// TransferSize keeps the source backlogged for the horizon.
	TransferSize units.DataSize
	// Horizon bounds the simulation (paper plots 300 ms; a longer run
	// also shows the post-convergence behaviour).
	Horizon sim.Time
}

// DefaultCwndTraceParams mirrors the paper's setup: a 3-relay circuit
// with an 8 Mbit/s bottleneck in an otherwise 100 Mbit/s overlay.
func DefaultCwndTraceParams(bottleneckHop int) CwndTraceParams {
	return CwndTraceParams{
		Seed:           42,
		Hops:           3,
		BottleneckHop:  bottleneckHop,
		BottleneckRate: units.Mbps(8),
		FastRate:       units.Mbps(100),
		AccessDelay:    5 * time.Millisecond,
		TransferSize:   4 * units.Megabyte,
		Horizon:        2 * sim.Second,
	}
}

// Scenario renders the params into the declarative single-circuit
// scenario the runner executes, with one policy arm per entry. The
// first relay is "relay-1"; the bottleneck sits at BottleneckHop.
func (p CwndTraceParams) Scenario(arms []scenario.Arm) scenario.Scenario {
	relays := make([]scenario.RelaySpec, p.Hops)
	path := make([]netem.NodeID, p.Hops)
	for i := range relays {
		id := netem.NodeID(fmt.Sprintf("relay-%d", i+1))
		rate := p.FastRate
		if i == p.BottleneckHop-1 {
			rate = p.BottleneckRate
		}
		relays[i] = scenario.RelaySpec{ID: id, Access: netem.Symmetric(rate, p.AccessDelay, 0)}
		path[i] = id
	}
	return scenario.Scenario{
		Name:     "fig1-cwnd-trace",
		Seed:     p.Seed,
		Topology: scenario.Topology{Relays: relays},
		Circuits: scenario.CircuitSet{
			Count:        1,
			Paths:        [][]netem.NodeID{path},
			TransferSize: p.TransferSize,
		},
		Arms:           arms,
		ClientAccess:   netem.Symmetric(p.FastRate, p.AccessDelay, 0),
		Horizon:        p.Horizon,
		RunFullHorizon: true,
		Probes:         scenario.Probes{TraceCwnd: true},
	}
}

// validate checks the params and fills defaults in place.
func (p *CwndTraceParams) validate() error {
	if p.Hops < 1 {
		return fmt.Errorf("experiments: %d hops", p.Hops)
	}
	if p.BottleneckHop < 1 || p.BottleneckHop > p.Hops {
		return fmt.Errorf("experiments: bottleneck hop %d outside 1..%d", p.BottleneckHop, p.Hops)
	}
	if p.Horizon <= 0 {
		p.Horizon = 2 * sim.Second
	}
	return nil
}

// CwndTraceResult is one Figure-1-upper-panel run.
type CwndTraceResult struct {
	Params CwndTraceParams
	// Trace is the source's congestion window over time, in cells.
	Trace *metrics.Series
	// OptimalCells is the model's optimal source window (dashed line).
	OptimalCells float64
	// ExitCwnd and ExitTime describe the startup exit.
	ExitCwnd float64
	ExitTime sim.Time
	// PeakCells is the largest window reached (overshoot magnitude).
	PeakCells float64
	// SettleTime is when the window entered ±50% of the optimal and
	// stayed there for ≥ 80% of the remaining horizon (re-probe blips
	// tolerated). Negative if it never converged.
	SettleTime sim.Time
	// FinalCells is the window at the horizon.
	FinalCells float64
}

// CwndKBPoints renders the trace in the paper's units: (ms, KB).
func (r CwndTraceResult) CwndKBPoints() []metrics.Point {
	pts := make([]metrics.Point, r.Trace.Len())
	for i, p := range r.Trace.Points() {
		pts[i] = metrics.Point{At: p.At, Value: p.Value * 512 / 1000}
	}
	return pts
}

// traceResult reshapes one scenario circuit outcome into the figure's
// result struct, deriving the trace statistics.
func traceResult(p CwndTraceParams, o scenario.CircuitOutcome) CwndTraceResult {
	res := CwndTraceResult{
		Params:       p,
		Trace:        o.Trace,
		OptimalCells: o.OptimalCells,
		ExitCwnd:     o.ExitCwnd,
		ExitTime:     o.ExitTime,
	}
	if peak, ok := res.Trace.Max(); ok {
		res.PeakCells = peak
	}
	if last, ok := res.Trace.Last(); ok {
		res.FinalCells = last.Value
	}
	if at, ok := res.Trace.ConvergeTime(res.OptimalCells, res.OptimalCells*0.5, 0.2); ok {
		res.SettleTime = at
	} else {
		res.SettleTime = -1
	}
	return res
}

// Fig1CwndTrace runs one single-circuit trace (Figure 1, upper panels).
func Fig1CwndTrace(p CwndTraceParams) (CwndTraceResult, error) {
	if err := p.validate(); err != nil {
		return CwndTraceResult{}, err
	}
	res, err := scenario.Runner{Workers: 1}.Run(p.Scenario([]scenario.Arm{
		{Name: "trace", Transport: p.Transport},
	}))
	if err != nil {
		return CwndTraceResult{}, err
	}
	return traceResult(p, res.Arms[0].Circuits[0]), nil
}

// CDFParams configures the aggregate download experiment of Figure 1's
// lower panel.
type CDFParams struct {
	Seed int64
	// Scenario shapes the network and workload; the Transport.Policy
	// field is overridden per arm.
	Scenario workload.ScenarioParams
	// Policies are the arms to compare. Default: circuitstart ("with")
	// vs backtap ("without").
	Policies []string
	// Horizon bounds each arm's simulation.
	Horizon sim.Time
}

// DefaultCDFParams mirrors the paper: 50 concurrent circuits over a
// random Tor-like relay population.
func DefaultCDFParams() CDFParams {
	return CDFParams{
		Seed:     42,
		Scenario: workload.DefaultScenario(),
		Policies: []string{"circuitstart", "backtap"},
		Horizon:  600 * sim.Second,
	}
}

// ToScenario renders the params into the declarative aggregate scenario
// with one arm per policy.
func (p CDFParams) ToScenario() scenario.Scenario {
	arms := make([]scenario.Arm, len(p.Policies))
	for i, policy := range p.Policies {
		t := p.Scenario.Transport
		t.Policy = policy
		arms[i] = scenario.Arm{Name: policy, Transport: t}
	}
	var arrival scenario.Arrival
	if p.Scenario.StartSpread > 0 {
		arrival = scenario.Arrival{Kind: scenario.ArriveUniform, Spread: p.Scenario.StartSpread}
	}
	relays := p.Scenario.Relays
	return scenario.Scenario{
		Name:     "fig1-download-cdf",
		Seed:     p.Seed,
		Topology: scenario.Topology{Population: &relays},
		Circuits: scenario.CircuitSet{
			Count:        p.Scenario.Circuits,
			Hops:         p.Scenario.HopsPerCircuit,
			TransferSize: p.Scenario.TransferSize,
			Download:     p.Scenario.Download,
			Arrival:      arrival,
		},
		Arms:         arms,
		ClientAccess: p.Scenario.ClientAccess,
		Horizon:      p.Horizon,
		Probes:       scenario.Probes{TraceCwnd: p.Scenario.TraceCwnd},
	}
}

// Fig1DownloadCDF runs the aggregate experiment once per policy arm on
// identical topologies and workloads (same seed), so differences in the
// TTLB distribution are attributable to the start-up scheme alone. Arms
// run in parallel, one worker per CPU.
func Fig1DownloadCDF(p CDFParams) (*scenario.Result, error) {
	if len(p.Policies) == 0 {
		p.Policies = []string{"circuitstart", "backtap"}
	}
	if p.Horizon <= 0 {
		p.Horizon = 600 * sim.Second
	}
	return scenario.Run(p.ToScenario())
}

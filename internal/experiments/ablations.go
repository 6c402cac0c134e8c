package experiments

import (
	"fmt"
	"time"

	"circuitstart/internal/core"
	"circuitstart/internal/model"
	"circuitstart/internal/netem"
	"circuitstart/internal/scenario"
	"circuitstart/internal/sim"
	"circuitstart/internal/transport"
	"circuitstart/internal/units"
)

// TraceRow is one configuration's outcome in an ablation over the
// single-circuit trace scenario: the configuration's label (γ value,
// policy name, …) and its trace statistics.
type TraceRow struct {
	Label string
	CwndTraceResult
}

// runTraceArms executes one multi-arm sweep over the trace scenario —
// every arm sees the identical topology and seed, and the runner fans
// the arms out across the CPUs — and renders one row per arm.
func runTraceArms(p CwndTraceParams, arms []scenario.Arm) ([]TraceRow, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	res, err := scenario.Run(p.Scenario(arms))
	if err != nil {
		return nil, err
	}
	rows := make([]TraceRow, len(res.Arms))
	for i, arm := range res.Arms {
		rows[i] = TraceRow{arm.Name, traceResult(p, arm.Circuits[0])}
	}
	return rows, nil
}

// AblationGamma sweeps the start-up exit threshold γ (paper fixes γ=4)
// on the distant-bottleneck trace scenario.
func AblationGamma(seed int64, gammas []float64) ([]TraceRow, error) {
	if len(gammas) == 0 {
		gammas = []float64{1, 2, 4, 8, 16}
	}
	arms := make([]scenario.Arm, len(gammas))
	for i, g := range gammas {
		arms[i] = scenario.Arm{
			Name:      fmt.Sprintf("gamma=%g", g),
			Transport: core.TransportOptions{Gamma: g},
		}
	}
	p := DefaultCwndTraceParams(3)
	p.Seed = seed
	return runTraceArms(p, arms)
}

// AblationCompensation compares exit-window strategies: CircuitStart's
// measured compensation, the literal in-round count, halving, and no
// compensation at all (classic slow start), on the distant-bottleneck
// scenario where compensation matters most.
func AblationCompensation(seed int64) ([]TraceRow, error) {
	arms := []scenario.Arm{
		{Name: "measured (paper)", Transport: core.TransportOptions{Policy: "circuitstart", Compensation: transport.CompMeasured}},
		{Name: "counted (literal)", Transport: core.TransportOptions{Policy: "circuitstart", Compensation: transport.CompCounted}},
		{Name: "halving", Transport: core.TransportOptions{Policy: "circuitstart-halve"}},
		{Name: "classic slow start", Transport: core.TransportOptions{Policy: "slowstart"}},
	}
	p := DefaultCwndTraceParams(3)
	p.Seed = seed
	return runTraceArms(p, arms)
}

// AblationFeedbackClock isolates the feedback-vs-ACK clocking choice:
// the same compensated exit, driven by rounds of FEEDBACK (CircuitStart)
// or by reception ACKs (a chained split-TCP-style ramp).
func AblationFeedbackClock(seed int64) ([]TraceRow, error) {
	arms := []scenario.Arm{
		{Name: "feedback rounds (paper)", Transport: core.TransportOptions{Policy: "circuitstart"}},
		{Name: "ack clocked + compensation", Transport: core.TransportOptions{Policy: "slowstart-compensated"}},
		{Name: "ack clocked + ack window", Transport: core.TransportOptions{Policy: "slowstart-compensated", WindowClock: transport.ClockAck}},
	}
	p := DefaultCwndTraceParams(3)
	p.Seed = seed
	return runTraceArms(p, arms)
}

// AblationBottleneckPosition sweeps the bottleneck over hops 1..3 of
// the trace circuit and reports convergence per position — the paper's
// claim is position independence ("quickly adjust the cwnd
// independently of the bottleneck's location"). Each position is its
// own topology, so this sweep runs one single-arm scenario per hop.
func AblationBottleneckPosition(seed int64) ([]TraceRow, error) {
	var rows []TraceRow
	for h := 1; h <= 3; h++ {
		p := DefaultCwndTraceParams(h)
		p.Seed = seed
		r, err := Fig1CwndTrace(p)
		if err != nil {
			return nil, err
		}
		rows = append(rows, TraceRow{fmt.Sprintf("bottleneck at hop %d", h), r})
	}
	return rows, nil
}

// AblationExtensions quantifies the dynamic-adaptation extensions this
// reproduction enables by default (DESIGN.md, deviations): the same
// distant-bottleneck trace with both, either, and neither of severe
// remeasure and accelerated re-probe.
func AblationExtensions(seed int64) ([]TraceRow, error) {
	arms := []scenario.Arm{
		{Name: "both extensions (default)", Transport: core.TransportOptions{}},
		{Name: "remeasure only", Transport: core.TransportOptions{RestartRounds: -1}},
		{Name: "re-probe only", Transport: core.TransportOptions{SevereRemeasure: -1}},
		{Name: "paper-pure (neither)", Transport: core.TransportOptions{RestartRounds: -1, SevereRemeasure: -1}},
	}
	p := DefaultCwndTraceParams(3)
	p.Seed = seed
	return runTraceArms(p, arms)
}

// AblationVegas sweeps the congestion-avoidance thresholds (α, β)
// around BackTap's defaults (2, 4) on the near-bottleneck trace, where
// the post-exit operating point is governed by avoidance.
func AblationVegas(seed int64) ([]TraceRow, error) {
	pairs := [][2]float64{{1, 2}, {2, 4}, {3, 6}, {4, 8}, {6, 12}}
	arms := make([]scenario.Arm, len(pairs))
	for i, ab := range pairs {
		arms[i] = scenario.Arm{
			Name:      fmt.Sprintf("alpha=%g beta=%g", ab[0], ab[1]),
			Transport: core.TransportOptions{Alpha: ab[0], Beta: ab[1]},
		}
	}
	p := DefaultCwndTraceParams(1)
	p.Seed = seed
	return runTraceArms(p, arms)
}

// ConcurrencyRow is one concurrency level's outcome.
type ConcurrencyRow struct {
	Circuits            int
	MedianWith          float64 // seconds, CircuitStart
	MedianWithout       float64 // seconds, plain BackTap
	P90With, P90Without float64
	IncompleteWith      int
	IncompleteWithout   int
}

// AblationConcurrency sweeps the number of concurrent circuits in the
// aggregate experiment and reports TTLB quantiles for both policies.
func AblationConcurrency(seed int64, levels []int) ([]ConcurrencyRow, error) {
	if len(levels) == 0 {
		levels = []int{10, 25, 50, 100}
	}
	rows := make([]ConcurrencyRow, 0, len(levels))
	for _, k := range levels {
		p := DefaultCDFParams()
		p.Seed = seed
		p.Scenario.Circuits = k
		// Keep the relay population proportional so load per relay is
		// comparable across levels.
		p.Scenario.Relays.N = max(12, k*4/5)
		res, err := Fig1DownloadCDF(p)
		if err != nil {
			return nil, err
		}
		with, without := res.Arm("circuitstart"), res.Arm("backtap")
		row := ConcurrencyRow{Circuits: k}
		if with.TTLB.Len() > 0 {
			row.MedianWith = with.TTLB.Median()
			row.P90With = with.TTLB.Quantile(0.9)
		}
		if without.TTLB.Len() > 0 {
			row.MedianWithout = without.TTLB.Median()
			row.P90Without = without.TTLB.Quantile(0.9)
		}
		row.IncompleteWith = with.Incomplete
		row.IncompleteWithout = without.Incomplete
		rows = append(rows, row)
	}
	return rows, nil
}

// DynamicRestart is the future-work extension experiment: a circuit
// over relays r1, r2, r3 whose bottleneck r2's access rate steps from
// 8 to 40 Mbit/s at 1 s, declared as the scenario's one LinkEvent
// (netem links apply a rate change from the next frame onward), in an
// otherwise 100 Mbit/s overlay. The 50 MB transfer, twice what the
// stepped-up bottleneck carries in the 5 s horizon, keeps the source
// backlogged throughout. Its one arm re-probes after 3 rounds; set the
// arm's Transport.RestartRounds to -1 for the baseline without the
// extension. Run it with ExtensionDynamicRestart.
func DynamicRestart(seed int64) scenario.Scenario {
	fast, delay := units.Mbps(100), 5*time.Millisecond
	return scenario.Scenario{
		Name: "extension-dynamic-restart",
		Seed: seed,
		Topology: scenario.Topology{Relays: []scenario.RelaySpec{
			{ID: "r1", Access: netem.Symmetric(fast, delay, 0)},
			{ID: "r2", Access: netem.Symmetric(units.Mbps(8), delay, 0)},
			{ID: "r3", Access: netem.Symmetric(fast, delay, 0)},
		}},
		Circuits: scenario.CircuitSet{
			Count:        1,
			Paths:        [][]netem.NodeID{{"r1", "r2", "r3"}},
			TransferSize: 50 * units.Megabyte,
		},
		Arms: []scenario.Arm{
			{Name: "dynamic", Transport: core.TransportOptions{RestartRounds: 3}},
		},
		ClientAccess:   netem.Symmetric(fast, delay, 0),
		Horizon:        5 * sim.Second,
		RunFullHorizon: true,
		Events:         []scenario.LinkEvent{{At: sim.Second, Relay: "r2", Rate: units.Mbps(40)}},
		Probes:         scenario.Probes{TraceCwnd: true},
	}
}

// DynamicRestartResult reports how quickly the window followed the step.
type DynamicRestartResult struct {
	// OptimalBefore/After are the model windows for the two regimes.
	OptimalBefore, OptimalAfter float64
	// WindowAtStep is the source window just before the step.
	WindowAtStep float64
	// RecoveryTime is how long after the step the window first reached
	// 80% of the new optimal (negative = never).
	RecoveryTime time.Duration
	// FinalCells is the window at the horizon.
	FinalCells float64
	// Restarts counts re-probes the source performed.
	Restarts uint64
}

// ExtensionDynamicRestart runs a capacity-step scenario — DynamicRestart
// or an edit of it — and measures how its first arm's window followed
// the step. With the re-probe extension the source should find the new
// capacity within a few round trips; without it, Vegas crawls up at one
// cell per RTT.
func ExtensionDynamicRestart(sc scenario.Scenario) (DynamicRestartResult, error) {
	if len(sc.Events) != 1 || sc.Events[0].Relay == "" {
		return DynamicRestartResult{}, fmt.Errorf("experiments: a capacity step is one relay LinkEvent, the scenario has %d events", len(sc.Events))
	}
	step := sc.Events[0]
	sres, err := scenario.Runner{Workers: 1}.Run(sc)
	if err != nil {
		return DynamicRestartResult{}, err
	}
	o := sres.Arms[0].Circuits[0]

	// The circuit's model path was built from the pre-step rates; the
	// optimum after the step comes from a model path with the new rate.
	res := DynamicRestartResult{OptimalBefore: o.OptimalCells, RecoveryTime: -1, Restarts: o.Restarts}
	after := []model.Node{model.FromAccess(sc.ClientAccess)}
	for _, r := range sc.Topology.Relays {
		access := r.Access
		if r.ID == step.Relay {
			access.UpRate, access.DownRate = step.Rate, step.Rate
		}
		after = append(after, model.FromAccess(access))
	}
	after = append(after, model.FromAccess(sc.ClientAccess))
	res.OptimalAfter = model.NewPath(after).OptimalSourceWindowCells()

	tr := o.Trace
	if v, ok := tr.At(step.At); ok {
		res.WindowAtStep = v
	}
	target := 0.8 * res.OptimalAfter
	for _, pt := range tr.Points() {
		if pt.At > step.At && pt.Value >= target {
			res.RecoveryTime = pt.At.Sub(step.At)
			break
		}
	}
	if last, ok := tr.Last(); ok {
		res.FinalCells = last.Value
	}
	return res, nil
}

package experiments

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"circuitstart/internal/core"
	"circuitstart/internal/scenario"
	"circuitstart/internal/sim"
	"circuitstart/internal/units"
	"circuitstart/internal/workload"
)

// ScaleParams configures the scale ablation: one whole-network churn
// trial at a consensus-realistic relay count, repeated at each
// requested shard count. Every run must produce byte-identical results
// — the experiment asserts it — so the only thing that may change with
// the shard count is the wall clock.
type ScaleParams struct {
	Seed int64
	// Relays is the generated population size (consensus-realistic:
	// ≥ 1000).
	Relays int
	// Switches is the backbone ring size; relays home round-robin.
	Switches int
	// TrunkDelay is the ring's one-way trunk delay — the conservative
	// lookahead, and hence the barrier stride, of every sharded run.
	TrunkDelay time.Duration
	// InitialCircuits start within the first 200 ms; Arrivals more
	// follow Poisson at ArrivalRate per second, each over a fresh
	// circuit that is torn down when its download completes.
	InitialCircuits int
	Arrivals        int
	ArrivalRate     float64
	// TransferSize is the fixed download per circuit.
	TransferSize units.DataSize
	// TrainSize caps cell-train coalescing on every link.
	TrainSize int
	// ShardCounts lists the shard counts to time, in order. The first
	// entry is the baseline the speedups are relative to.
	ShardCounts []int
	// Horizon bounds each trial.
	Horizon sim.Time
}

// DefaultScaleParams runs 1,024 relays behind a 16-switch ring with 48
// initial and 96 arriving 100 kB downloads, timed at 1, 2 and 4 shards.
func DefaultScaleParams() ScaleParams {
	return ScaleParams{
		Seed:            42,
		Relays:          1024,
		Switches:        16,
		TrunkDelay:      10 * time.Millisecond,
		InitialCircuits: 48,
		Arrivals:        96,
		ArrivalRate:     32,
		TransferSize:    100 * units.Kilobyte,
		ShardCounts:     []int{1, 2, 4},
		Horizon:         600 * sim.Second,
	}
}

// validate checks the params and fills defaults in place.
func (p *ScaleParams) validate() error {
	if p.Relays <= 0 {
		return fmt.Errorf("experiments: %d relays", p.Relays)
	}
	if p.Switches <= 1 {
		return fmt.Errorf("experiments: scale ablation needs ≥ 2 switches to cut, got %d", p.Switches)
	}
	if p.TrunkDelay <= 0 {
		return fmt.Errorf("experiments: trunk delay %v", p.TrunkDelay)
	}
	if p.InitialCircuits <= 0 {
		return fmt.Errorf("experiments: %d initial circuits", p.InitialCircuits)
	}
	if p.Arrivals < 0 || (p.Arrivals > 0) != (p.ArrivalRate > 0) {
		return fmt.Errorf("experiments: scale arrivals need both a count and a rate")
	}
	if p.TransferSize <= 0 {
		return fmt.Errorf("experiments: transfer size %v", p.TransferSize)
	}
	if len(p.ShardCounts) == 0 {
		return fmt.Errorf("experiments: no shard counts to time")
	}
	for _, s := range p.ShardCounts {
		if s <= 0 {
			return fmt.Errorf("experiments: shard count %d", s)
		}
	}
	if p.Horizon <= 0 {
		p.Horizon = 600 * sim.Second
	}
	return nil
}

// Scenario renders the params into the single-arm whole-network churn
// scenario, parameterized by shard count.
func (p ScaleParams) Scenario(shards int) (scenario.Scenario, error) {
	bp := workload.DefaultBackboneParams(p.Relays, p.Switches)
	bp.TrunkDelay = p.TrunkDelay
	spec, err := workload.GenerateBackbone(bp)
	if err != nil {
		return scenario.Scenario{}, err
	}
	return scenario.Scenario{
		Name:     "ablation-scale",
		Seed:     p.Seed,
		Shards:   shards,
		Topology: scenario.Topology{Population: &bp.Relays, Fabric: &spec},
		Circuits: scenario.CircuitSet{
			Count:        p.InitialCircuits,
			TransferSize: p.TransferSize,
			Arrival:      scenario.Arrival{Kind: scenario.ArriveUniform, Spread: 200 * time.Millisecond},
		},
		Arms: []scenario.Arm{{
			Name:      "circuitstart",
			Transport: core.TransportOptions{Policy: "circuitstart"},
			Rebuild:   true,
		}},
		CircuitEvents: scenario.CircuitEvents{
			ArrivalRate: p.ArrivalRate,
			Arrivals:    p.Arrivals,
		},
		TrainSize: p.TrainSize,
		Horizon:   p.Horizon,
	}, nil
}

// ScaleRun is one timed shard count.
type ScaleRun struct {
	Shards int
	// Wall is the trial's wall-clock time (simulation only; topology
	// generation and validation are outside the timer).
	Wall time.Duration
	// Speedup is baselineWall / Wall (1.0 for the baseline entry).
	Speedup float64
	// CutTrunks of Trunks backbone trunks cross a shard boundary, and
	// Handoffs frames crossed one: what the partition costs.
	CutTrunks, Trunks int
	Handoffs          uint64
	// Busy is the mean time a shard spent executing its windows, Wait
	// the mean time it spent parked at barriers instead — waiting for a
	// slower shard or for the coordinator's serial work.
	Busy, Wait time.Duration
	// MedianTTLB and the churn counters summarize the run's results —
	// identical across every row by construction.
	MedianTTLB float64
	Built      int
	TornDown   int
	Rebuilt    int
}

// ScaleResult is the scale ablation's outcome: one timed row per shard
// count over byte-identical simulations.
type ScaleResult struct {
	Params ScaleParams
	Runs   []ScaleRun
	// Cores is runtime.GOMAXPROCS at run time — speedups are bounded
	// by it, so a single-core box reports ~1.0 at every shard count.
	Cores int
}

// WriteText renders the speedup table.
func (r *ScaleResult) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%-8s %12s %9s %7s %10s %15s %12s %7s %9s %8s\n",
		"shards", "wall", "speedup", "cut", "handoffs", "busy/wait", "median-ttlb", "built", "torndown", "rebuilt"); err != nil {
		return err
	}
	for _, run := range r.Runs {
		if _, err := fmt.Fprintf(w, "%-8d %12s %8.2fx %7s %10d %15s %11.3fs %7d %9d %8d\n",
			run.Shards, run.Wall.Round(time.Millisecond), run.Speedup,
			fmt.Sprintf("%d/%d", run.CutTrunks, run.Trunks), run.Handoffs,
			fmt.Sprintf("%s/%s", run.Busy.Round(time.Millisecond), run.Wait.Round(time.Millisecond)),
			run.MedianTTLB, run.Built, run.TornDown, run.Rebuilt); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "(GOMAXPROCS=%d; shard parallelism cannot beat the core count)\n", r.Cores)
	return err
}

// AblationScale times one whole-network churn trial at each shard
// count and asserts the results are byte-identical across all of them:
// the scale knob may only buy wall-clock time, never change a result.
func AblationScale(p ScaleParams) (*ScaleResult, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	res := &ScaleResult{Params: p, Cores: runtime.GOMAXPROCS(0)}
	var baseline *scenario.Result
	for i, shards := range p.ShardCounts {
		sc, err := p.Scenario(shards)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		out, err := scenario.Runner{Workers: 1}.Run(sc)
		wall := time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("experiments: scale at %d shards: %w", shards, err)
		}
		if i == 0 {
			baseline = out
		} else if err := sameScaleResult(baseline, out); err != nil {
			return nil, fmt.Errorf("experiments: %d shards diverged from %d: %w",
				shards, p.ShardCounts[0], err)
		}
		arm := out.Arms[0]
		cost := arm.Net.Shard
		var busy time.Duration
		for _, b := range cost.Busy {
			busy += b
		}
		busy /= time.Duration(len(cost.Busy))
		run := ScaleRun{
			Shards:     shards,
			Wall:       wall,
			Speedup:    1,
			CutTrunks:  cost.Cut,
			Trunks:     cost.Trunks,
			Handoffs:   cost.Handoffs,
			Busy:       busy,
			Wait:       cost.Wall - busy,
			MedianTTLB: arm.TTLB.Median(),
			Built:      arm.Churn.Built,
			TornDown:   arm.Churn.TornDown,
			Rebuilt:    arm.Churn.Rebuilt,
		}
		if i > 0 && wall > 0 {
			run.Speedup = float64(res.Runs[0].Wall) / float64(wall)
		}
		res.Runs = append(res.Runs, run)
	}
	return res, nil
}

// sameScaleResult checks two runs of the scale scenario for the
// byte-identity the sharded engine guarantees: every outcome, every
// TTLB sample, every churn counter and every trunk statistic.
func sameScaleResult(a, b *scenario.Result) error {
	if len(a.Arms) != len(b.Arms) {
		return fmt.Errorf("arm counts %d vs %d", len(a.Arms), len(b.Arms))
	}
	for i := range a.Arms {
		aa, ba := a.Arms[i], b.Arms[i]
		if len(aa.Circuits) != len(ba.Circuits) {
			return fmt.Errorf("arm %d outcome counts %d vs %d", i, len(aa.Circuits), len(ba.Circuits))
		}
		for j := range aa.Circuits {
			ao, bo := aa.Circuits[j], ba.Circuits[j]
			if ao.TTLB != bo.TTLB || ao.Done != bo.Done || ao.Aborted != bo.Aborted ||
				ao.Rejected != bo.Rejected || ao.StartAt != bo.StartAt || ao.Rebuilds != bo.Rebuilds {
				return fmt.Errorf("arm %d outcome %d: %+v vs %+v", i, j, ao, bo)
			}
		}
		ac, bc := aa.Churn, ba.Churn
		if ac.Built != bc.Built || ac.TornDown != bc.TornDown ||
			ac.Rebuilt != bc.Rebuilt || ac.Aborted != bc.Aborted || ac.Rejected != bc.Rejected {
			return fmt.Errorf("arm %d churn: %+v vs %+v", i, ac, bc)
		}
		an, bn := aa.Net, ba.Net
		if an.UnknownDst != bn.UnknownDst || an.Unroutable != bn.Unroutable || an.SchedDrops != bn.SchedDrops {
			return fmt.Errorf("arm %d drops: %+v vs %+v", i, an, bn)
		}
		if len(an.Trunks) != len(bn.Trunks) {
			return fmt.Errorf("arm %d trunk counts %d vs %d", i, len(an.Trunks), len(bn.Trunks))
		}
		for j := range an.Trunks {
			if an.Trunks[j] != bn.Trunks[j] {
				return fmt.Errorf("arm %d trunk %d: %+v vs %+v", i, j, an.Trunks[j], bn.Trunks[j])
			}
		}
	}
	return nil
}

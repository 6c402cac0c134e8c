package spec

import (
	"fmt"
	"slices"
	"time"

	"circuitstart/internal/core"
	"circuitstart/internal/experiments"
	"circuitstart/internal/faults"
	"circuitstart/internal/netem"
	"circuitstart/internal/scenario"
	"circuitstart/internal/sim"
	"circuitstart/internal/sweep"
	"circuitstart/internal/units"
	"circuitstart/internal/workload"
)

func millis(ms float64) time.Duration  { return time.Duration(ms * float64(time.Millisecond)) }
func secondsD(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// Sweep renders the parsed spec into an executable sweep.Sweep. Call
// only on a File that came out of Parse: rendering assumes normalized
// defaults.
func (f *File) Sweep() (sweep.Sweep, error) {
	base, traceParams, err := f.Base.scenario(f.Name, *f.Seed)
	if err != nil {
		return sweep.Sweep{}, err
	}
	sw := sweep.Sweep{Name: f.Name, Base: base, Sample: f.Sample, SampleSeed: f.SampleSeed}
	for i, d := range f.Dimensions {
		dim, err := f.Base.buildDim(d, traceParams)
		if err != nil {
			return sweep.Sweep{}, fmt.Errorf("spec: dimensions[%d]: %w", i, err)
		}
		sw.Dimensions = append(sw.Dimensions, dim)
	}
	if len(sw.Dimensions) == 0 {
		return sweep.Sweep{}, fmt.Errorf("spec: no dimensions")
	}
	return sw, nil
}

// scenario renders the base block. traceParams carries the trace
// preset forward for the trace-aware dimensions.
func (b *Base) scenario(name string, seed int64) (scenario.Scenario, experiments.CwndTraceParams, error) {
	cfg, err := b.relayConfig()
	if err != nil {
		return scenario.Scenario{}, experiments.CwndTraceParams{}, err
	}
	arms := make([]scenario.Arm, len(b.Arms))
	for i, policy := range b.Arms {
		arms[i] = scenario.Arm{
			Name:      policy,
			Transport: core.TransportOptions{Policy: policy},
			Relay:     cfg,
		}
	}

	var sc scenario.Scenario
	var traceParams experiments.CwndTraceParams
	switch b.Kind {
	case "trace":
		traceParams = experiments.DefaultCwndTraceParams(b.Distance)
		traceParams.Seed = seed
		traceParams.Hops = b.Hops
		if b.HorizonSec > 0 {
			traceParams.Horizon = sim.Time(secondsD(b.HorizonSec))
		}
		sc = traceParams.Scenario(arms)
	case "population":
		pop := b.relayParams()
		arrival := scenario.Arrival{}
		switch {
		case b.PoissonRate > 0:
			arrival = scenario.Arrival{Kind: scenario.ArrivePoisson, Rate: b.PoissonRate}
		case b.SpreadMs != nil && *b.SpreadMs > 0:
			arrival = scenario.Arrival{Kind: scenario.ArriveUniform, Spread: millis(*b.SpreadMs)}
		}
		topo := scenario.Topology{Population: &pop}
		if b.Switches > 0 {
			gs, err := workload.GenerateBackbone(workload.DefaultBackboneParams(b.Relays, b.Switches))
			if err != nil {
				return scenario.Scenario{}, experiments.CwndTraceParams{}, fmt.Errorf("spec: %w", err)
			}
			topo.Fabric = &gs
		}
		circuits := scenario.CircuitSet{
			Count:        b.Circuits,
			Hops:         b.Hops,
			TransferSize: units.DataSize(b.SizeBytes),
			Download:     b.Download,
			Arrival:      arrival,
		}
		if b.SizeDist != "" {
			d, err := workload.ParseSizeDist(b.SizeDist)
			if err != nil {
				return scenario.Scenario{}, experiments.CwndTraceParams{}, fmt.Errorf("spec: base.size_dist: %w", err)
			}
			circuits.SizeDist = &d
			circuits.TransferSize = 0
		}
		sc = scenario.Scenario{
			Name:     name,
			Seed:     seed,
			Topology: topo,
			Circuits: circuits,
			Arms:     arms,
			Horizon:  sim.Time(secondsD(b.HorizonSec)),
		}
	default:
		return scenario.Scenario{}, experiments.CwndTraceParams{}, fmt.Errorf("spec: unknown base.kind %q", b.Kind)
	}

	sc.TrainSize = b.Train
	sc.Shards = b.Shards
	if b.Faults != "" {
		plan, err := faults.Preset(b.Faults, sc.RelayIDs())
		if err != nil {
			return scenario.Scenario{}, experiments.CwndTraceParams{}, fmt.Errorf("spec: base.faults: %w", err)
		}
		sc.Faults = plan
	}
	if len(b.FaultPlan) > 0 {
		plan, err := faults.ParseSpec(b.FaultPlan)
		if err != nil {
			return scenario.Scenario{}, experiments.CwndTraceParams{}, fmt.Errorf("spec: base.fault_plan: %w", err)
		}
		sc.Faults = plan
	}
	return sc, traceParams, nil
}

// buildDim renders one dimension block, enforcing that it names
// exactly one axis.
func (b *Base) buildDim(d Dim, traceParams experiments.CwndTraceParams) (sweep.Dimension, error) {
	var out []sweep.Dimension
	var errs []error
	add := func(dim sweep.Dimension, err error) {
		if err != nil {
			errs = append(errs, err)
			return
		}
		out = append(out, dim)
	}
	if len(d.Gammas) > 0 {
		// γ = 0 would select the default 4 under the label 0.
		if least := slices.Min(d.Gammas); !(least > 0) {
			add(sweep.Dimension{}, fmt.Errorf("gamma %v is not positive", least))
		} else {
			add(sweep.Gamma(d.Gammas...), nil)
		}
	}
	if len(d.Policies) > 0 {
		add(sweep.Policies(d.Policies...))
	}
	if len(d.BandwidthsMbps) > 0 {
		if least := slices.Min(d.BandwidthsMbps); !(least > 0) {
			add(sweep.Dimension{}, fmt.Errorf("bandwidth %v Mbit/s is not positive", least))
		} else {
			rates := make([]units.DataRate, len(d.BandwidthsMbps))
			for i, m := range d.BandwidthsMbps {
				rates[i] = units.Mbps(m)
			}
			if b.Kind == "trace" {
				add(TraceBandwidths(b.Distance, rates...), nil)
			} else {
				add(sweep.PopulationBandwidths(rates...), nil)
			}
		}
	}
	if len(d.HopCounts) > 0 {
		// A circuit needs a relay: refuse short counts here, where the
		// offending block is named, not when a worker expands the point.
		switch least := slices.Min(d.HopCounts); {
		case least < 1:
			add(sweep.Dimension{}, fmt.Errorf("hop count %d is below 1", least))
		case b.Kind == "trace":
			add(TraceHops(traceParams, d.HopCounts...), nil)
		default:
			add(sweep.Hops(d.HopCounts...), nil)
		}
	}
	if len(d.SizesBytes) > 0 {
		if least := slices.Min(d.SizesBytes); least < 1 {
			add(sweep.Dimension{}, fmt.Errorf("transfer size %d bytes is below 1", least))
		} else {
			sizes := make([]units.DataSize, len(d.SizesBytes))
			for i, n := range d.SizesBytes {
				sizes[i] = units.DataSize(n)
			}
			add(sweep.TransferSizes(sizes...), nil)
		}
	}
	if len(d.SizeDists) > 0 {
		add(sweep.DimSizeDist(d.SizeDists...))
	}
	if len(d.Counts) > 0 {
		if least := slices.Min(d.Counts); least < 1 {
			add(sweep.Dimension{}, fmt.Errorf("circuit count %d is below 1", least))
		} else {
			add(sweep.Circuits(d.Counts...), nil)
		}
	}
	if len(d.Trains) > 0 {
		add(sweep.DimTrainSize(d.Trains...))
	}
	if len(d.ShardCounts) > 0 {
		add(sweep.DimShards(d.ShardCounts...))
	}
	if len(d.Faults) > 0 {
		add(sweep.DimFaults(d.Faults...))
	}
	if len(d.Schedulers) > 0 {
		add(sweep.DimScheduler(d.Schedulers...))
	}
	if len(d.Seeds) > 0 {
		add(sweep.Seeds(d.Seeds...), nil)
	}
	if len(errs) > 0 {
		return sweep.Dimension{}, errs[0]
	}
	if len(out) != 1 {
		return sweep.Dimension{}, fmt.Errorf("needs exactly one axis list, has %d", len(out))
	}
	return out[0], nil
}

// TraceBandwidths sweeps the trace base's bottleneck access rate. The
// bottleneck sits at the base distance, clamped to the current path
// length — so it keeps targeting the relay TraceHops put the bottleneck
// on when a hops axis shortened the circuit below the base distance,
// whichever order the two axes appear in.
func TraceBandwidths(distance int, rates ...units.DataRate) sweep.Dimension {
	d := sweep.Dimension{Name: "bottleneck_bw"}
	for _, r := range rates {
		r := r
		d.Values = append(d.Values, sweep.Value{
			Label: r.String(),
			Apply: func(sc *scenario.Scenario) error {
				idx := distance
				if n := len(sc.Topology.Relays); idx > n {
					idx = n
				}
				bottleneck := netem.NodeID(fmt.Sprintf("relay-%d", idx))
				for i := range sc.Topology.Relays {
					if sc.Topology.Relays[i].ID == bottleneck {
						sc.Topology.Relays[i].Access.UpRate = r
						sc.Topology.Relays[i].Access.DownRate = r
						return nil
					}
				}
				return fmt.Errorf("explicit topology has no relay %q", bottleneck)
			},
		})
	}
	return d
}

// TraceHops sweeps the circuit length of the trace base by regenerating
// the explicit topology and path per value. The bottleneck stays at the
// base distance, clamped to the new length, and keeps whatever rate the
// current scenario's bottleneck relay carries — so a bandwidth axis
// composes with this one in either dimension order instead of being
// silently clobbered by the rebuild.
func TraceHops(p experiments.CwndTraceParams, counts ...int) sweep.Dimension {
	d := sweep.Dimension{Name: "hops"}
	for _, h := range counts {
		h := h
		d.Values = append(d.Values, sweep.Value{
			Label: fmt.Sprintf("%d", h),
			Apply: func(sc *scenario.Scenario) error {
				if h < 1 {
					return fmt.Errorf("%d hops", h)
				}
				q := p
				q.Hops = h
				if q.BottleneckHop > h {
					q.BottleneckHop = h
				}
				bottleneck := netem.NodeID(fmt.Sprintf("relay-%d", p.BottleneckHop))
				for _, r := range sc.Topology.Relays {
					if r.ID == bottleneck {
						q.BottleneckRate = r.Access.UpRate
					}
				}
				fresh := q.Scenario(nil)
				sc.Topology = fresh.Topology
				sc.Circuits.Paths = fresh.Circuits.Paths
				return nil
			},
		})
	}
	return d
}

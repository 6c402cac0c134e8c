package sweep

import (
	"fmt"

	"circuitstart/internal/faults"
	relaypkg "circuitstart/internal/relay"
	"circuitstart/internal/scenario"
	"circuitstart/internal/transport"
	"circuitstart/internal/units"
	"circuitstart/internal/workload"
)

// Custom builds a dimension from explicit values — the escape hatch for
// axes the stock constructors below do not cover (e.g. rebuilding the
// whole topology per hop count).
func Custom(name string, values ...Value) Dimension {
	return Dimension{Name: name, Values: values}
}

// Gamma returns a dimension sweeping the start-up exit threshold γ on
// every arm.
func Gamma(gammas ...float64) Dimension {
	d := Dimension{Name: "gamma"}
	for _, g := range gammas {
		g := g
		d.Values = append(d.Values, Value{
			Label: fmt.Sprintf("%g", g),
			Apply: func(sc *scenario.Scenario) error {
				for i := range sc.Arms {
					sc.Arms[i].Transport.Gamma = g
				}
				return nil
			},
		})
	}
	return d
}

// Policies returns a dimension sweeping the start-up policy on every
// arm. Names are validated eagerly via transport.PolicyByName, so a
// typo fails at grid construction, not inside a worker.
func Policies(names ...string) (Dimension, error) {
	d := Dimension{Name: "policy"}
	for _, name := range names {
		name := name
		if _, err := transport.PolicyByName(name, 0); err != nil {
			return Dimension{}, fmt.Errorf("sweep: %w", err)
		}
		d.Values = append(d.Values, Value{
			Label: name,
			Apply: func(sc *scenario.Scenario) error {
				for i := range sc.Arms {
					sc.Arms[i].Transport.Policy = name
				}
				return nil
			},
		})
	}
	return d, nil
}

// Circuits returns a dimension sweeping the concurrent circuit count.
// On explicit topologies the base must declare a single shared path
// (scenario validation enforces the path/count contract).
func Circuits(counts ...int) Dimension {
	d := Dimension{Name: "circuits"}
	for _, n := range counts {
		n := n
		d.Values = append(d.Values, Value{
			Label: fmt.Sprintf("%d", n),
			Apply: func(sc *scenario.Scenario) error {
				sc.Circuits.Count = n
				return nil
			},
		})
	}
	return d
}

// TransferSizes returns a dimension sweeping the per-circuit transfer.
func TransferSizes(sizes ...units.DataSize) Dimension {
	d := Dimension{Name: "size"}
	for _, s := range sizes {
		s := s
		d.Values = append(d.Values, Value{
			Label: s.String(),
			Apply: func(sc *scenario.Scenario) error {
				sc.Circuits.TransferSize = s
				return nil
			},
		})
	}
	return d
}

// Hops returns a dimension sweeping the sampled path length on a
// generated population (explicit topologies fix their paths; rebuild
// those with a Custom dimension instead).
func Hops(counts ...int) Dimension {
	d := Dimension{Name: "hops"}
	for _, n := range counts {
		n := n
		d.Values = append(d.Values, Value{
			Label: fmt.Sprintf("%d", n),
			Apply: func(sc *scenario.Scenario) error {
				if sc.Topology.Population == nil {
					return fmt.Errorf("hops axis needs a generated population topology")
				}
				sc.Circuits.Hops = n
				return nil
			},
		})
	}
	return d
}

// PopulationSizes returns a dimension sweeping the generated relay
// population size.
func PopulationSizes(ns ...int) Dimension {
	d := Dimension{Name: "relays"}
	for _, n := range ns {
		n := n
		d.Values = append(d.Values, Value{
			Label: fmt.Sprintf("%d", n),
			Apply: func(sc *scenario.Scenario) error {
				if sc.Topology.Population == nil {
					return fmt.Errorf("population-size axis needs a generated population topology")
				}
				sc.Topology.Population.N = n
				return nil
			},
		})
	}
	return d
}

// PopulationBandwidths returns a dimension sweeping the generated
// population's median relay bandwidth.
func PopulationBandwidths(rates ...units.DataRate) Dimension {
	d := Dimension{Name: "median_bw"}
	for _, r := range rates {
		r := r
		d.Values = append(d.Values, Value{
			Label: r.String(),
			Apply: func(sc *scenario.Scenario) error {
				if sc.Topology.Population == nil {
					return fmt.Errorf("median-bandwidth axis needs a generated population topology")
				}
				sc.Topology.Population.BandwidthMedian = r
				return nil
			},
		})
	}
	return d
}

// DimScheduler returns a dimension sweeping the relay circuit-scheduler
// discipline ("fifo" or "ewma") on every arm. Names are validated
// eagerly, so a typo fails at grid construction, not inside a worker.
func DimScheduler(names ...string) (Dimension, error) {
	d := Dimension{Name: "scheduler"}
	for _, name := range names {
		name := name
		if err := (relaypkg.Config{Scheduler: name}).Validate(); err != nil {
			return Dimension{}, fmt.Errorf("sweep: %w", err)
		}
		d.Values = append(d.Values, Value{
			Label: name,
			Apply: func(sc *scenario.Scenario) error {
				for i := range sc.Arms {
					sc.Arms[i].Relay.Scheduler = name
				}
				return nil
			},
		})
	}
	return d, nil
}

// DimTrainSize returns a dimension sweeping the cell-train coalescing
// cap on every link of the trial. Size ≤ 1 is the byte-identical
// one-event-per-cell baseline, so a sweep over {1, n} directly measures
// what batching does to the simulated outcomes (it should be nothing)
// and to wall-clock runtime (it should be a lot).
func DimTrainSize(sizes ...int) (Dimension, error) {
	d := Dimension{Name: "train"}
	for _, n := range sizes {
		n := n
		if n < 0 {
			return Dimension{}, fmt.Errorf("sweep: negative train size %d", n)
		}
		d.Values = append(d.Values, Value{
			Label: fmt.Sprintf("%d", n),
			Apply: func(sc *scenario.Scenario) error {
				sc.TrainSize = n
				return nil
			},
		})
	}
	return d, nil
}

// DimShards returns a dimension sweeping the trial-internal shard
// count on the conservative-lookahead parallel engine. Count 0 is the
// single-clock engine; every count ≥ 1 is byte-identical to count 1,
// so a sweep over {1, n} measures what sharding does to the simulated
// outcomes (it must be nothing) and to wall-clock runtime. Counts ≥ 1
// need a routed Fabric topology with loss-free trunks.
func DimShards(counts ...int) (Dimension, error) {
	d := Dimension{Name: "shards"}
	for _, n := range counts {
		n := n
		if n < 0 {
			return Dimension{}, fmt.Errorf("sweep: negative shard count %d", n)
		}
		d.Values = append(d.Values, Value{
			Label: fmt.Sprintf("%d", n),
			Apply: func(sc *scenario.Scenario) error {
				sc.Shards = n
				return nil
			},
		})
	}
	return d, nil
}

// DimFaults returns a dimension sweeping named fault presets (see
// faults.PresetNames; "none" is the fault-free control). Preset names
// are validated eagerly; the preset itself is rendered at apply time
// against each point's own topology, so the axis composes with
// population-size and topology dimensions.
func DimFaults(names ...string) (Dimension, error) {
	d := Dimension{Name: "faults"}
	for _, name := range names {
		name := name
		if _, err := faults.Preset(name, nil); err != nil {
			return Dimension{}, fmt.Errorf("sweep: %w", err)
		}
		d.Values = append(d.Values, Value{
			Label: name,
			Apply: func(sc *scenario.Scenario) error {
				plan, err := faults.Preset(name, sc.RelayIDs())
				if err != nil {
					return err
				}
				sc.Faults = plan
				return nil
			},
		})
	}
	return d, nil
}

// DimSizeDist returns a dimension sweeping the per-circuit
// transfer-size distribution (workload.ParseSizeDist forms, e.g.
// "fixed:500000", "lognormal:500000:0.8", "pareto:100000:1.2:10000000").
// Specs are validated eagerly; samples are drawn per point from the
// scenario seed's dedicated stream, so the axis is deterministic for
// any worker count and the fixed kind is byte-identical to a scalar
// TransferSize base.
func DimSizeDist(specs ...string) (Dimension, error) {
	d := Dimension{Name: "size_dist"}
	for _, s := range specs {
		dist, err := workload.ParseSizeDist(s)
		if err != nil {
			return Dimension{}, fmt.Errorf("sweep: %w", err)
		}
		d.Values = append(d.Values, Value{
			Label: dist.Label(),
			Apply: func(sc *scenario.Scenario) error {
				dd := dist
				sc.Circuits.SizeDist = &dd
				sc.Circuits.SizeMix = nil
				sc.Circuits.TransferSize = 0
				return nil
			},
		})
	}
	return d, nil
}

// Seeds returns a dimension re-running every other coordinate under
// independent base seeds — an explicit-replication axis whose points
// stay separately addressable in the output (unlike
// Scenario.Replications, which pools into one distribution).
func Seeds(seeds ...int64) Dimension {
	d := Dimension{Name: "seed"}
	for _, s := range seeds {
		s := s
		d.Values = append(d.Values, Value{
			Label: fmt.Sprintf("%d", s),
			Apply: func(sc *scenario.Scenario) error {
				sc.Seed = s
				return nil
			},
		})
	}
	return d
}

package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"circuitstart/internal/core"
	"circuitstart/internal/faults"
	"circuitstart/internal/scenario"
	"circuitstart/internal/sim"
	"circuitstart/internal/units"
	"circuitstart/internal/workload"
)

// sizes fixes every input dimension of the benchmark. benchSizes is
// what BENCHMARK.json's numbers are measured at; smokeSizes only has to
// reach every code path in a few seconds under `go test`.
type sizes struct {
	fig1Circuits int
	fig1Size     units.DataSize
	bulkCircuits int
	bulkSize     units.DataSize

	churnInitial, churnArrivals int

	scaleRelays, scaleSwitches  int
	scaleInitial, scaleArrivals int

	// The sweep grid (also the daemon's replay grid) and the smaller
	// cold grid, as axis value lists.
	gridGammas, gridBandwidths []float64
	gridHops                   []int
	gridHorizonSec             float64
	coldGammas, coldBandwidths []float64

	// The per-layer probes run reduced copies of the workload inputs so
	// a traced run fits next to the workload it traces.
	probeLoops       int // iterations of a nanosecond-scale loop
	probeCircuits    int // fig1-shaped probe trial
	probeSize        units.DataSize
	probeTrainSize   units.DataSize // bulk-shaped probe trial
	probeHopSize     units.DataSize // single-transfer extra-hop probe
	probeChurn       int            // arrivals of the churn probe
	probeScaleRelays int
	probeScaleLoad   int // initial downloads; twice as many arrive
	probeGrid        []float64
	probeReplays     int
}

var benchSizes = sizes{
	fig1Circuits: 50, fig1Size: 250 * units.Kilobyte,
	bulkCircuits: 20, bulkSize: 2 * units.Megabyte,
	churnInitial: 16, churnArrivals: 300,
	scaleRelays: 1024, scaleSwitches: 16, scaleInitial: 24, scaleArrivals: 48,
	gridGammas: []float64{1.5, 2, 3, 4}, gridBandwidths: []float64{4, 8, 16, 32}, gridHops: []int{3, 4, 5},
	gridHorizonSec: 1,
	coldGammas:     []float64{2, 3, 4}, coldBandwidths: []float64{8, 16},

	probeLoops:    400_000,
	probeCircuits: 50, probeSize: 100 * units.Kilobyte,
	probeTrainSize: 1 * units.Megabyte, probeHopSize: 1 * units.Megabyte,
	probeChurn:       240,
	probeScaleRelays: 512, probeScaleLoad: 12,
	probeGrid:    []float64{1.5, 2, 3, 4},
	probeReplays: 20,
}

var smokeSizes = sizes{
	fig1Circuits: 4, fig1Size: 50 * units.Kilobyte,
	bulkCircuits: 2, bulkSize: 200 * units.Kilobyte,
	churnInitial: 2, churnArrivals: 6,
	scaleRelays: 32, scaleSwitches: 4, scaleInitial: 2, scaleArrivals: 4,
	gridGammas: []float64{2, 4}, gridBandwidths: []float64{8}, gridHops: []int{3},
	gridHorizonSec: 0.2,
	coldGammas:     []float64{2}, coldBandwidths: []float64{8},

	probeLoops:    200,
	probeCircuits: 3, probeSize: 50 * units.Kilobyte,
	probeTrainSize: 100 * units.Kilobyte, probeHopSize: 50 * units.Kilobyte,
	probeChurn:       4,
	probeScaleRelays: 32, probeScaleLoad: 2,
	probeGrid:    []float64{2},
	probeReplays: 2,
}

// inputRNG is the one place -seed enters: every generator draws its
// scenario seeds, fault targets and spec seeds from a stream keyed by
// the benchmark seed and the input's name.
func inputRNG(seed int64, input string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, input)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

func arm(policy string) scenario.Arm {
	return scenario.Arm{Name: policy, Transport: core.TransportOptions{Policy: policy}}
}

// starScenario is the paper's aggregate experiment: concurrent fixed
// downloads over a generated 40-relay population on the star, under
// CircuitStart and classic slow start. The scenario seed drives the
// population, the sampled paths and the start stagger.
//
// Every trial input sets Download: data flows server → client, the
// direction the paper's download times refer to. It is also the only
// direction on which no operation fails: in the forward direction an
// intermediate relay drops a still-encrypted cell whose ciphertext
// happens to parse as a recognized relay header (relay.processCell),
// about once per 2×10⁷ cell-hops, after which the exit's running digest
// never matches again and that download stalls until the horizon.
func starScenario(name string, seed int64, circuits int, size units.DataSize, train int) scenario.Scenario {
	pop := workload.DefaultRelayParams(40)
	return scenario.Scenario{
		Name:     name,
		Seed:     inputRNG(seed, name).Int63(),
		Topology: scenario.Topology{Population: &pop},
		Circuits: scenario.CircuitSet{
			Count: circuits, TransferSize: size, Download: true,
			Arrival: scenario.Arrival{Kind: scenario.ArriveUniform, Spread: 200 * time.Millisecond},
		},
		Arms:      []scenario.Arm{arm("circuitstart"), arm("slowstart")},
		TrainSize: train,
		Horizon:   600 * sim.Second,
	}
}

func fig1Scenario(seed int64, z sizes) scenario.Scenario {
	return starScenario("fig1_cdf", seed, z.fig1Circuits, z.fig1Size, 0)
}

func bulkScenario(seed int64, z sizes) scenario.Scenario {
	return starScenario("bulk_trains", seed, z.bulkCircuits, z.bulkSize, 8)
}

// ringScenario is a churn trial on a generated population behind a
// ring backbone: initial downloads within 200 ms, then Poisson arrivals
// over fresh circuits, each torn down on completion.
func ringScenario(name string, seed int64, relays, switches, initial, arrivals int, rate float64, size units.DataSize) (scenario.Scenario, error) {
	bp := workload.DefaultBackboneParams(relays, switches)
	fabric, err := workload.GenerateBackbone(bp)
	if err != nil {
		return scenario.Scenario{}, err
	}
	rebuild := arm("circuitstart")
	rebuild.Rebuild = true
	return scenario.Scenario{
		Name:     name,
		Seed:     inputRNG(seed, name).Int63(),
		Topology: scenario.Topology{Population: &bp.Relays, Fabric: &fabric},
		Circuits: scenario.CircuitSet{
			Count: initial, TransferSize: size, Download: true,
			Arrival: scenario.Arrival{Kind: scenario.ArriveUniform, Spread: 200 * time.Millisecond},
		},
		Arms:          []scenario.Arm{rebuild},
		CircuitEvents: scenario.CircuitEvents{ArrivalRate: rate, Arrivals: arrivals},
		Horizon:       600 * sim.Second,
	}, nil
}

// churnScenario adds the `flaky` fault preset (one relay flapping, one
// jittering, endpoint recovery armed) to a 64-relay, 4-switch churn
// trial. The seed picks which relays the faults hit. Aiming them at the
// two busiest relays instead makes stalls and rebuilds certain (0–8 a
// trial) but tripled the spread of the run time across seeds.
func churnScenario(seed int64, initial, arrivals int) (scenario.Scenario, error) {
	sc, err := ringScenario("churn_faults", seed, 64, 4, initial, arrivals, 40, 50*units.Kilobyte)
	if err != nil {
		return sc, err
	}
	ids := sc.RelayIDs()
	inputRNG(seed, "churn_faults/targets").Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	sc.Faults, err = faults.Preset("flaky", ids)
	return sc, err
}

// scaleScenario is the whole-network trial the sharded engine exists
// for; shards selects how many cores one trial is split across.
func scaleScenario(seed int64, relays, switches, initial, arrivals, shards int) (scenario.Scenario, error) {
	sc, err := ringScenario("scale_sharded", seed, relays, switches, initial, arrivals, 32, 100*units.Kilobyte)
	sc.Shards = shards
	return sc, err
}

// gridSpec renders a trace-base sweep spec in the wire form every
// front door parses. hops may be empty; horizonSec 0 keeps the trace
// preset's own horizon.
func gridSpec(name string, seed int64, gammas, bandwidths []float64, hops []int, horizonSec float64) []byte {
	base := map[string]any{"kind": "trace"}
	if horizonSec > 0 {
		base["horizon_sec"] = horizonSec
	}
	dims := []map[string]any{{"gammas": gammas}, {"bandwidths_mbps": bandwidths}}
	if len(hops) > 0 {
		dims = append(dims, map[string]any{"hopcounts": hops})
	}
	data, err := json.Marshal(map[string]any{
		"version": 1, "name": name, "seed": seed, "base": base, "dimensions": dims,
	})
	if err != nil {
		panic(err) // a map of numbers and strings always marshals
	}
	return data
}

// sweepSpec is the 48-point grid of sweep_grid and serve_replay.
func sweepSpec(seed int64, z sizes) []byte {
	return gridSpec("sweep_grid", inputRNG(seed, "sweep_grid").Int63(), z.gridGammas, z.gridBandwidths, z.gridHops, z.gridHorizonSec)
}

// coldSpec is submission i of serve_cold: the same small grid under a
// seed no earlier submission used, so no point is ever cached.
func coldSpec(seed int64, z sizes, i int) []byte {
	return gridSpec("serve_cold", inputRNG(seed, "serve_cold").Int63()>>8+int64(i), z.coldGammas, z.coldBandwidths, nil, 0)
}

func pointsIn(axes ...int) int {
	n := 1
	for _, a := range axes {
		if a > 0 {
			n *= a
		}
	}
	return n
}

package workload_test

import (
	"fmt"
	"testing"
	"time"

	"circuitstart/internal/experiments"
	"circuitstart/internal/netem"
	"circuitstart/internal/scenario"
	"circuitstart/internal/units"
	"circuitstart/internal/workload"
)

// TestFig1DownloadCDFScenarioEquivalence asserts that the Figure 1
// aggregate scenario, run on the scenario engine, matches running each
// arm by hand through the reference Build and Scenario.Run circuit for
// circuit: over both arrival kinds, both transfer directions, three
// seeds, and a star and a ring fabric, and on both fabrics with cell
// trains of 8.
func TestFig1DownloadCDFScenarioEquivalence(t *testing.T) {
	ring, err := workload.GenerateBackbone(workload.DefaultBackboneParams(16, 4))
	if err != nil {
		t.Fatal(err)
	}
	arrivals := []struct {
		name    string
		arrival scenario.Arrival
	}{
		{"together", scenario.Arrival{}},
		{"uniform", scenario.Arrival{Kind: scenario.ArriveUniform, Spread: 200 * time.Millisecond}},
	}
	directions := []struct {
		name     string
		download bool
	}{{"download", true}, {"forward", false}}
	fabrics := []struct {
		name string
		spec *netem.GraphSpec
	}{{"star", nil}, {"ring4", &ring}}
	run := func(name string, sc scenario.Scenario) {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			checkAgainstReference(t, sc)
		})
	}
	for _, arrival := range arrivals {
		for _, dir := range directions {
			for _, seed := range []int64{1, 7, 42} {
				for _, fabric := range fabrics {
					sc := smallCDF(seed)
					sc.Circuits.Arrival = arrival.arrival
					sc.Circuits.Download = dir.download
					sc.Topology.Fabric = fabric.spec
					run(fmt.Sprintf("%s/%s/seed%d/%s", arrival.name, dir.name, seed, fabric.name), sc)
				}
			}
		}
	}
	for _, fabric := range fabrics {
		sc := smallCDF(42)
		sc.TrainSize = 8
		sc.Topology.Fabric = fabric.spec
		run("train8/uniform/forward/seed42/"+fabric.name, sc)
	}
}

// smallCDF shrinks the Figure 1 aggregate scenario to a test size.
func smallCDF(seed int64) scenario.Scenario {
	sc := experiments.Fig1CDF(seed)
	sc.Topology.Population.N = 16
	sc.Circuits.Count = 12
	sc.Circuits.TransferSize = 300 * units.Kilobyte
	return sc
}

// checkAgainstReference runs sc on the engine and each arm through the
// reference, and compares every circuit's Done, TTLB and exit window.
func checkAgainstReference(t *testing.T, sc scenario.Scenario) {
	res, err := scenario.Runner{Workers: 1}.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, arm := range sc.Arms {
		ref, err := workload.Build(sc.Seed, workload.ScenarioParams{
			Relays:         *sc.Topology.Population,
			Circuits:       sc.Circuits.Count,
			HopsPerCircuit: sc.Circuits.Hops,
			TransferSize:   sc.Circuits.TransferSize,
			Transport:      arm.Transport,
			Fabric:         sc.Topology.Fabric,
			StartSpread:    sc.Circuits.Arrival.Spread,
			Download:       sc.Circuits.Download,
			TrainSize:      sc.TrainSize,
		})
		if err != nil {
			t.Fatal(err)
		}
		want := ref.Run(sc.Horizon)
		got := res.Arm(arm.Name).Circuits
		if len(got) != len(want) {
			t.Fatalf("arm %q: %d vs %d circuits", arm.Name, len(got), len(want))
		}
		for i, w := range want {
			exit := ref.Circuits[i].SourceSender().Stats().ExitCwnd
			if g := got[i]; g.Done != w.Done || g.TTLB != w.TTLB || g.ExitCwnd != exit {
				t.Fatalf("arm %q circuit %d: engine done=%v ttlb=%v exit=%v, reference done=%v ttlb=%v exit=%v",
					arm.Name, i, g.Done, g.TTLB, g.ExitCwnd, w.Done, w.TTLB, exit)
			}
		}
	}
}

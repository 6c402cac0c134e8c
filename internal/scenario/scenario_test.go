package scenario

import (
	"testing"
	"time"

	"circuitstart/internal/core"
	"circuitstart/internal/netem"
	"circuitstart/internal/sim"
	"circuitstart/internal/units"
	"circuitstart/internal/workload"
)

// testScenario is a small two-arm aggregate scenario with replications
// — every determinism-relevant code path (generated topology, sampled
// paths, uniform arrivals, substreamed replications) in one run.
func testScenario() Scenario {
	pop := workload.DefaultRelayParams(12)
	return Scenario{
		Name:     "determinism",
		Seed:     7,
		Topology: Topology{Population: &pop},
		Circuits: CircuitSet{
			Count:        6,
			TransferSize: 200 * units.Kilobyte,
			Arrival:      Arrival{Kind: ArriveUniform, Spread: 100 * time.Millisecond},
		},
		Arms: []Arm{
			{Name: "with", Transport: core.TransportOptions{}},
			{Name: "without", Transport: core.TransportOptions{Policy: "backtap"}},
		},
		Horizon:      600 * sim.Second,
		Replications: 2,
	}
}

// assertResultsIdentical compares two Results bit for bit.
func assertResultsIdentical(t *testing.T, a, b *Result) {
	t.Helper()
	if len(a.Arms) != len(b.Arms) {
		t.Fatalf("arm counts %d vs %d", len(a.Arms), len(b.Arms))
	}
	for i := range a.Arms {
		aa, ba := a.Arms[i], b.Arms[i]
		if aa.Name != ba.Name || aa.Incomplete != ba.Incomplete {
			t.Fatalf("arm %d: %q/%d vs %q/%d", i, aa.Name, aa.Incomplete, ba.Name, ba.Incomplete)
		}
		as, bs := aa.TTLB.Sorted(), ba.TTLB.Sorted()
		if len(as) != len(bs) {
			t.Fatalf("arm %q: sample counts %d vs %d", aa.Name, len(as), len(bs))
		}
		for j := range as {
			if as[j] != bs[j] {
				t.Fatalf("arm %q sample %d: %v vs %v", aa.Name, j, as[j], bs[j])
			}
		}
		if len(aa.Circuits) != len(ba.Circuits) {
			t.Fatalf("arm %q: outcome counts %d vs %d", aa.Name, len(aa.Circuits), len(ba.Circuits))
		}
		for j := range aa.Circuits {
			ao, bo := aa.Circuits[j], ba.Circuits[j]
			if ao.Replication != bo.Replication || ao.Index != bo.Index ||
				ao.TTLB != bo.TTLB || ao.Done != bo.Done ||
				ao.ExitCwnd != bo.ExitCwnd || ao.ExitTime != bo.ExitTime ||
				ao.Restarts != bo.Restarts || ao.OptimalCells != bo.OptimalCells ||
				ao.Aborted != bo.Aborted || ao.StartAt != bo.StartAt ||
				ao.Rebuilds != bo.Rebuilds {
				t.Fatalf("arm %q outcome %d differs: %+v vs %+v", aa.Name, j, ao, bo)
			}
		}
	}
}

func TestRunnerWorkerCountDeterminism(t *testing.T) {
	// The tentpole guarantee: Workers: 1 and Workers: 8 produce
	// bit-identical Results for the same seed, because every trial owns
	// its network and aggregation order is fixed by trial index.
	serial, err := Runner{Workers: 1}.Run(testScenario())
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Runner{Workers: 8}.Run(testScenario())
	if err != nil {
		t.Fatal(err)
	}
	assertResultsIdentical(t, serial, parallel)
}

func TestRunnerReplicationSubstreams(t *testing.T) {
	res, err := Runner{Workers: 4}.Run(testScenario())
	if err != nil {
		t.Fatal(err)
	}
	arm := res.Arms[0]
	if got := arm.TTLB.Len() + arm.Incomplete; got != 12 {
		t.Fatalf("pooled %d outcomes, want 6 circuits × 2 reps", got)
	}
	// Replication 1 runs an independent seed substream: its workload
	// must differ from replication 0's.
	same := true
	for i := 0; i < 6; i++ {
		if arm.Circuits[i].TTLB != arm.Circuits[6+i].TTLB {
			same = false
			break
		}
	}
	if same {
		t.Error("replications produced identical outcomes — substream not applied")
	}
}

func TestRunnerExplicitTopology(t *testing.T) {
	relays := []RelaySpec{
		{ID: "r1", Access: netem.Symmetric(units.Mbps(100), 5*time.Millisecond, 0)},
		{ID: "r2", Access: netem.Symmetric(units.Mbps(8), 5*time.Millisecond, 0)},
		{ID: "r3", Access: netem.Symmetric(units.Mbps(100), 5*time.Millisecond, 0)},
	}
	sc := Scenario{
		Seed:     42,
		Topology: Topology{Relays: relays},
		Circuits: CircuitSet{
			Paths:        [][]netem.NodeID{{"r1", "r2", "r3"}},
			TransferSize: 500 * units.Kilobyte,
		},
		Arms:    []Arm{{Name: "default"}},
		Horizon: 60 * sim.Second,
		Probes:  Probes{TraceCwnd: true},
	}
	res, err := Runner{Workers: 2}.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	o := res.Arms[0].Circuits[0]
	if !o.Done {
		t.Fatal("transfer incomplete")
	}
	if o.Trace == nil || o.Trace.Len() == 0 {
		t.Fatal("no cwnd trace despite TraceCwnd probe")
	}
	if o.OptimalCells <= 0 {
		t.Fatalf("optimal cells %v", o.OptimalCells)
	}
	// Count defaulted from the single path.
	if res.Scenario.Circuits.Count != 1 {
		t.Fatalf("count defaulted to %d", res.Scenario.Circuits.Count)
	}
}

func TestRunnerPoissonArrivals(t *testing.T) {
	sc := testScenario()
	sc.Circuits.Arrival = Arrival{Kind: ArrivePoisson, Rate: 50}
	sc.Replications = 1
	res, err := Runner{Workers: 4}.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, arm := range res.Arms {
		if arm.Incomplete > 0 {
			t.Fatalf("arm %q left %d incomplete", arm.Name, arm.Incomplete)
		}
		if arm.TTLB.Len() != 6 {
			t.Fatalf("arm %q has %d samples", arm.Name, arm.TTLB.Len())
		}
	}
	// Identical across worker counts too.
	again, err := Runner{Workers: 1}.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsIdentical(t, res, again)
}

func TestArrivalDelays(t *testing.T) {
	cs := CircuitSet{Arrival: Arrival{Kind: ArrivePoisson, Rate: 100}}
	delays := arrivalDelays(1, cs, 20, "scenario-starts")
	var prev time.Duration
	for i, d := range delays {
		if d <= prev {
			t.Fatalf("arrival %d at %v not after %v", i, d, prev)
		}
		prev = d
	}
	cs = CircuitSet{Arrival: Arrival{Kind: ArriveUniform, Spread: time.Second}}
	for i, d := range arrivalDelays(1, cs, 20, "scenario-starts") {
		if d < 0 || d >= time.Second {
			t.Fatalf("uniform delay %d = %v outside [0, 1s)", i, d)
		}
	}
	cs = CircuitSet{}
	for i, d := range arrivalDelays(1, cs, 3, "scenario-starts") {
		if d != 0 {
			t.Fatalf("together delay %d = %v", i, d)
		}
	}
}

func TestScenarioValidation(t *testing.T) {
	pop := workload.DefaultRelayParams(8)
	relay := RelaySpec{ID: "r1", Access: netem.Symmetric(units.Mbps(10), time.Millisecond, 0)}
	base := func() Scenario {
		return Scenario{
			Seed:     1,
			Topology: Topology{Population: &pop},
			Circuits: CircuitSet{Count: 2, TransferSize: units.Kilobyte},
			Arms:     []Arm{{Name: "a"}},
			Horizon:  sim.Second,
		}
	}
	cases := []struct {
		name   string
		mutate func(*Scenario)
	}{
		{"no topology", func(s *Scenario) { s.Topology = Topology{} }},
		{"both topologies", func(s *Scenario) { s.Topology.Relays = []RelaySpec{relay} }},
		{"no arms", func(s *Scenario) { s.Arms = nil }},
		{"unnamed arm", func(s *Scenario) { s.Arms = []Arm{{}} }},
		{"duplicate arms", func(s *Scenario) { s.Arms = []Arm{{Name: "a"}, {Name: "a"}} }},
		{"no horizon", func(s *Scenario) { s.Horizon = 0 }},
		{"negative reps", func(s *Scenario) { s.Replications = -1 }},
		{"no transfer size", func(s *Scenario) { s.Circuits.TransferSize = 0 }},
		{"uniform without spread", func(s *Scenario) { s.Circuits.Arrival.Kind = ArriveUniform }},
		{"poisson without rate", func(s *Scenario) { s.Circuits.Arrival.Kind = ArrivePoisson }},
		{"paths on generated", func(s *Scenario) { s.Circuits.Paths = [][]netem.NodeID{{"r1"}} }},
		{"events on generated", func(s *Scenario) { s.Events = []LinkEvent{{At: 1, Relay: "r1", Rate: units.Mbps(1)}} }},
		{"full horizon on generated", func(s *Scenario) { s.RunFullHorizon = true }},
		{"explicit without paths", func(s *Scenario) {
			s.Topology = Topology{Relays: []RelaySpec{relay}}
		}},
		{"path names unknown relay", func(s *Scenario) {
			s.Topology = Topology{Relays: []RelaySpec{relay}}
			s.Circuits.Paths = [][]netem.NodeID{{"ghost"}}
		}},
		{"event names unknown relay", func(s *Scenario) {
			s.Topology = Topology{Relays: []RelaySpec{relay}}
			s.Circuits.Paths = [][]netem.NodeID{{"r1"}}
			s.Events = []LinkEvent{{At: 1, Relay: "ghost", Rate: units.Mbps(1)}}
		}},
		{"path count mismatch", func(s *Scenario) {
			s.Topology = Topology{Relays: []RelaySpec{relay}}
			s.Circuits.Count = 3
			s.Circuits.Paths = [][]netem.NodeID{{"r1"}, {"r1"}}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := base()
			tc.mutate(&sc)
			if _, err := (Runner{Workers: 1}).Run(sc); err == nil {
				t.Fatalf("%s accepted", tc.name)
			}
		})
	}
}

func TestTrialSeedSubstreams(t *testing.T) {
	if trialSeed(42, 0) != 42 {
		t.Fatal("replication 0 must use the scenario seed itself")
	}
	seen := map[int64]bool{42: true}
	for rep := 1; rep < 100; rep++ {
		s := trialSeed(42, rep)
		if seen[s] {
			t.Fatalf("substream collision at rep %d", rep)
		}
		seen[s] = true
	}
}

func TestResultAccessors(t *testing.T) {
	sc := testScenario()
	sc.Replications = 1
	sc.Circuits.Count = 3
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Arm("with") == nil || res.Arm("nope") != nil {
		t.Fatal("Arm lookup broken")
	}
	// CircuitStart should not lose to plain BackTap on its home turf.
	if gap := res.MedianGap("with", "without"); gap > 0.05 {
		t.Errorf("median gap %+.3fs — circuitstart slower than backtap", gap)
	}
}

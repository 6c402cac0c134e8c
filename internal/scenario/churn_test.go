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

// churnScenario exercises every churn mechanism at once: Poisson
// circuit arrivals over a generated population, teardown of completed
// circuits, scheduled teardowns of initial circuits, and a relay
// failure with recovery — with one Rebuild arm and one without.
func churnScenario() Scenario {
	pop := workload.DefaultRelayParams(12)
	return Scenario{
		Name:     "churn",
		Seed:     11,
		Topology: Topology{Population: &pop},
		Circuits: CircuitSet{
			Count:        4,
			TransferSize: 150 * units.Kilobyte,
			Arrival:      Arrival{Kind: ArriveUniform, Spread: 100 * time.Millisecond},
		},
		Arms: []Arm{
			{Name: "rebuild", Rebuild: true},
			{Name: "no-rebuild", Transport: core.TransportOptions{Policy: "backtap"}},
		},
		CircuitEvents: CircuitEvents{
			ArrivalRate:   10,
			Arrivals:      8,
			TeardownDelay: 50 * time.Millisecond,
			Teardowns:     []TeardownEvent{{At: 20 * sim.Millisecond, Index: 0}},
		},
		RelayEvents: []RelayEvent{
			{At: 300 * sim.Millisecond, Relay: "relay-011", Kind: RelayFail},
			{At: 2 * sim.Second, Relay: "relay-011", Kind: RelayRecover},
		},
		Horizon:      600 * sim.Second,
		Replications: 2,
	}
}

func TestChurnWorkerCountDeterminism(t *testing.T) {
	serial, err := Runner{Workers: 1}.Run(churnScenario())
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Runner{Workers: 8}.Run(churnScenario())
	if err != nil {
		t.Fatal(err)
	}
	assertResultsIdentical(t, serial, parallel)
	for i := range serial.Arms {
		sa, pa := serial.Arms[i].Churn, parallel.Arms[i].Churn
		if sa.Built != pa.Built || sa.TornDown != pa.TornDown ||
			sa.Rebuilt != pa.Rebuilt || sa.Aborted != pa.Aborted {
			t.Fatalf("arm %d churn stats differ: %+v vs %+v", i, sa, pa)
		}
		ss, ps := sa.Lifetime.Sorted(), pa.Lifetime.Sorted()
		if len(ss) != len(ps) {
			t.Fatalf("arm %d lifetime sample counts %d vs %d", i, len(ss), len(ps))
		}
		for j := range ss {
			if ss[j] != ps[j] {
				t.Fatalf("arm %d lifetime sample %d: %v vs %v", i, j, ss[j], ps[j])
			}
		}
	}
}

func TestChurnLifecycleAccounting(t *testing.T) {
	res, err := Runner{Workers: 4}.Run(churnScenario())
	if err != nil {
		t.Fatal(err)
	}
	for _, arm := range res.Arms {
		// 4 initial + 8 arrivals, 2 replications.
		if got := len(arm.Circuits); got != 24 {
			t.Fatalf("arm %q has %d outcomes, want 24", arm.Name, got)
		}
		c := arm.Churn
		if c.Built < 24 {
			t.Fatalf("arm %q built %d circuits, want ≥ 24", arm.Name, c.Built)
		}
		// Every circuit must eventually be torn down: completed ones by
		// the churn engine, survivors at collect time.
		if c.TornDown != c.Built {
			t.Fatalf("arm %q tore down %d of %d built circuits", arm.Name, c.TornDown, c.Built)
		}
		if c.Lifetime.Len() != c.TornDown {
			t.Fatalf("arm %q pooled %d lifetimes for %d teardowns", arm.Name, c.Lifetime.Len(), c.TornDown)
		}
		// The scheduled teardown at 20 ms kills initial circuit 0
		// before its 150 kB transfer can finish.
		if c.Aborted < 2 {
			t.Fatalf("arm %q aborted %d downloads, want ≥ 2 (one per replication)", arm.Name, c.Aborted)
		}
		done := 0
		for _, o := range arm.Circuits {
			if o.Done {
				done++
			}
			if o.Done && o.Aborted {
				t.Fatalf("outcome %d both done and aborted", o.Index)
			}
		}
		if done != arm.TTLB.Len() {
			t.Fatalf("arm %q: %d done outcomes but %d TTLB samples", arm.Name, done, arm.TTLB.Len())
		}
		if done == 0 {
			t.Fatalf("arm %q completed nothing", arm.Name)
		}
	}
}

func TestChurnRebuildPolicy(t *testing.T) {
	// The rebuild arm recovers downloads the relay failure killed; the
	// no-rebuild arm aborts them. relay-011 is exit-flagged and
	// top-of-population bandwidth, so it almost surely carries traffic
	// at the failure instant; tolerate the rare trial where it does
	// not by only checking the arms' invariants.
	res, err := Runner{Workers: 2}.Run(churnScenario())
	if err != nil {
		t.Fatal(err)
	}
	rebuild, plain := res.Arm("rebuild"), res.Arm("no-rebuild")
	if plain.Churn.Rebuilt != 0 {
		t.Fatalf("no-rebuild arm rebuilt %d circuits", plain.Churn.Rebuilt)
	}
	if rebuild.Churn.Rebuilt == 0 {
		t.Log("rebuild arm saw no failures crossing live circuits (timing-dependent)")
	}
	for _, o := range rebuild.Circuits {
		if o.Rebuilds > 0 && !o.Done && !o.Aborted {
			t.Fatalf("rebuilt download %d neither done nor aborted", o.Index)
		}
	}
}

func TestChurnExplicitTopologyTeardown(t *testing.T) {
	// Scheduled teardown on an explicit topology: circuit 0 dies at
	// 50 ms mid-transfer, circuit 1 completes; both end torn down.
	relays := []RelaySpec{
		{ID: "r1", Access: netem.Symmetric(units.Mbps(50), 5*time.Millisecond, 0)},
		{ID: "r2", Access: netem.Symmetric(units.Mbps(8), 5*time.Millisecond, 0)},
	}
	sc := Scenario{
		Seed:     3,
		Topology: Topology{Relays: relays},
		Circuits: CircuitSet{
			Count:        2,
			Paths:        [][]netem.NodeID{{"r1", "r2"}},
			TransferSize: 300 * units.Kilobyte,
		},
		Arms: []Arm{{Name: "default"}},
		CircuitEvents: CircuitEvents{
			Teardowns: []TeardownEvent{{At: 50 * sim.Millisecond, Index: 0}},
		},
		Horizon: 60 * sim.Second,
	}
	res, err := Runner{Workers: 1}.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	arm := res.Arms[0]
	if !arm.Circuits[1].Done || arm.Circuits[0].Done {
		t.Fatalf("outcomes: %+v", arm.Circuits)
	}
	if !arm.Circuits[0].Aborted {
		t.Fatal("torn-down circuit not recorded as aborted")
	}
	if arm.Incomplete != 0 {
		t.Fatalf("aborted download counted as incomplete (%d)", arm.Incomplete)
	}
	if arm.Churn.TornDown != 2 || arm.Churn.Aborted != 1 {
		t.Fatalf("churn stats %+v", arm.Churn)
	}
}

// TestChurnFailureBeforeStaggeredStart pins the pending-start rebuild
// interaction: a relay failure that kills a circuit whose download has
// not started yet (its staggered start is still scheduled) must leave
// the download with exactly one transfer — started by the original
// schedule on the rebuilt circuit — not one per event.
func TestChurnFailureBeforeStaggeredStart(t *testing.T) {
	pop := workload.DefaultRelayParams(12)
	sc := Scenario{
		Name:     "fail-before-start",
		Seed:     5,
		Topology: Topology{Population: &pop},
		Circuits: CircuitSet{
			Count:        6,
			TransferSize: 150 * units.Kilobyte,
			// Starts spread across 2 s; failures at 0.5 s and 1 s land
			// before most of them.
			Arrival: Arrival{Kind: ArriveUniform, Spread: 2 * time.Second},
		},
		Arms: []Arm{{Name: "rebuild", Rebuild: true}},
		RelayEvents: []RelayEvent{
			{At: 500 * sim.Millisecond, Relay: "relay-010", Kind: RelayFail},
			{At: sim.Second, Relay: "relay-011", Kind: RelayFail},
			{At: 3 * sim.Second, Relay: "relay-010", Kind: RelayRecover},
			{At: 3 * sim.Second, Relay: "relay-011", Kind: RelayRecover},
		},
		CircuitEvents: CircuitEvents{TeardownDelay: 10 * time.Millisecond},
		Horizon:       600 * sim.Second,
	}
	res, err := Runner{Workers: 1}.Run(sc)
	if err != nil {
		t.Fatal(err) // the pre-fix engine panicked here (double Transfer)
	}
	arm := res.Arms[0]
	for _, o := range arm.Circuits {
		if !o.Done && !o.Aborted {
			t.Fatalf("download %d neither done nor aborted: %+v", o.Index, o)
		}
		if o.Done && o.StartAt == 0 && o.Rebuilds > 0 {
			t.Fatalf("rebuilt download %d has zero StartAt — TTLB measured from t=0", o.Index)
		}
	}
	if arm.TTLB.Len()+arm.Churn.Aborted != 6 {
		t.Fatalf("%d done + %d aborted, want 6 total", arm.TTLB.Len(), arm.Churn.Aborted)
	}
}

// TestChurnTeardownDelayAloneEnablesLifecycle pins the CircuitEvents
// zero-value boundary: TeardownDelay by itself must turn the circuit
// lifecycle on (circuits torn down after completion), not leave the
// trial static.
func TestChurnTeardownDelayAloneEnablesLifecycle(t *testing.T) {
	sc := testScenario()
	sc.Replications = 1
	sc.CircuitEvents = CircuitEvents{TeardownDelay: 10 * time.Millisecond}
	res, err := Runner{Workers: 1}.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, arm := range res.Arms {
		if arm.Churn.Lifetime == nil || arm.Churn.TornDown != arm.Churn.Built {
			t.Fatalf("arm %q: lifecycle not engaged: %+v", arm.Name, arm.Churn)
		}
	}
}

func TestChurnValidation(t *testing.T) {
	pop := workload.DefaultRelayParams(8)
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
		{"rate without arrivals", func(s *Scenario) { s.CircuitEvents.ArrivalRate = 1 }},
		{"arrivals without rate", func(s *Scenario) { s.CircuitEvents.Arrivals = 1 }},
		{"negative rate", func(s *Scenario) { s.CircuitEvents.ArrivalRate = -1 }},
		{"negative teardown delay", func(s *Scenario) { s.CircuitEvents.TeardownDelay = -time.Second }},
		{"teardown index out of range", func(s *Scenario) {
			s.CircuitEvents.Teardowns = []TeardownEvent{{At: sim.Second, Index: 2}}
		}},
		{"teardown at zero", func(s *Scenario) {
			s.CircuitEvents.Teardowns = []TeardownEvent{{Index: 0}}
		}},
		{"relay event unknown relay", func(s *Scenario) {
			s.RelayEvents = []RelayEvent{{At: sim.Second, Relay: "relay-099", Kind: RelayFail}}
		}},
		{"relay event bad kind", func(s *Scenario) {
			s.RelayEvents = []RelayEvent{{At: sim.Second, Relay: "relay-001", Kind: RelayEventKind(9)}}
		}},
		{"relay event at zero", func(s *Scenario) {
			s.RelayEvents = []RelayEvent{{Relay: "relay-001", Kind: RelayFail}}
		}},
		{"rebuild on explicit topology", func(s *Scenario) {
			s.Topology = Topology{Relays: []RelaySpec{
				{ID: "r1", Access: netem.Symmetric(units.Mbps(10), time.Millisecond, 0)},
			}}
			s.Circuits.Paths = [][]netem.NodeID{{"r1"}}
			s.Arms = []Arm{{Name: "a", Rebuild: true}}
			s.RelayEvents = []RelayEvent{{At: sim.Second, Relay: "r1", Kind: RelayFail}}
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

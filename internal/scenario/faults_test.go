package scenario

import (
	"strings"
	"testing"
	"time"

	"circuitstart/internal/arena"
	"circuitstart/internal/core"
	"circuitstart/internal/faults"
	"circuitstart/internal/netem"
	"circuitstart/internal/sim"
	"circuitstart/internal/units"
	"circuitstart/internal/workload"
)

// faultedScenario exercises every fault class at once on an explicit
// two-switch topology: Gilbert–Elliott burst loss on one guard, a hang
// on the other, and a backbone trunk partition that darkens every
// circuit — with endpoint recovery rebuilding the stalled downloads.
// The explicit paths make the fault targets deterministic: both guards
// carry circuits, so both the loss and the hang are guaranteed to hit
// live traffic.
func faultedScenario() Scenario {
	access := netem.Symmetric(units.Mbps(20), 2*time.Millisecond, 0)
	spec := netem.GraphSpec{
		Switches: []netem.SwitchID{"east", "west"},
		Trunks: []netem.TrunkSpec{{
			A: "west", B: "east",
			Config: netem.TrunkConfig{Rate: units.Mbps(16), Delay: 2 * time.Millisecond},
		}},
		Homes: map[netem.NodeID]netem.SwitchID{
			"g-000": "west", "g-001": "west", "e-000": "east", "e-001": "east",
			"client-000": "west", "client-001": "west", "client-002": "west", "client-003": "west",
			"server-000": "east", "server-001": "east", "server-002": "east", "server-003": "east",
		},
	}
	return Scenario{
		Name: "faulted",
		Seed: 7,
		Topology: Topology{
			Relays: []RelaySpec{
				{ID: "g-000", Access: access}, {ID: "e-000", Access: access},
				{ID: "g-001", Access: access}, {ID: "e-001", Access: access},
			},
			Fabric: &spec,
		},
		Circuits: CircuitSet{
			Count: 4,
			Paths: [][]netem.NodeID{
				{"g-000", "e-000"}, {"g-001", "e-001"},
				{"g-000", "e-000"}, {"g-001", "e-001"},
			},
			TransferSize: 400 * units.Kilobyte,
			Arrival:      Arrival{Kind: ArriveUniform, Spread: 50 * time.Millisecond},
		},
		Arms: []Arm{{Name: "circuitstart"}},
		Faults: faults.Plan{
			BurstLoss: []faults.BurstLoss{{
				Relay: "g-001", From: 200 * sim.Millisecond, Until: 5 * sim.Second,
				PGoodBad: 0.02, PBadGood: 0.1, LossBad: 0.5,
			}},
			Degrades: []faults.Degrade{{
				Relay: "g-000", Mode: faults.DegradeHang,
				At: 300 * sim.Millisecond, RecoverAfter: 2 * time.Second,
			}},
			Partitions: []faults.Partition{{
				TrunkA: "west", TrunkB: "east",
				At: 4 * sim.Second, HealAfter: time.Second,
			}},
			Recovery: faults.Recovery{
				Enabled: true, MaxRetries: 6, RTOMax: 2 * time.Second,
			},
		},
		Horizon:      120 * sim.Second,
		Replications: 2,
	}
}

func TestFaultsWorkerCountDeterminism(t *testing.T) {
	serial, err := Runner{Workers: 1}.Run(faultedScenario())
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Runner{Workers: 8}.Run(faultedScenario())
	if err != nil {
		t.Fatal(err)
	}
	assertResultsIdentical(t, serial, parallel)
	for i := range serial.Arms {
		sr, pr := serial.Arms[i].Resilience, parallel.Arms[i].Resilience
		if sr.Stalls != pr.Stalls || sr.Recoveries != pr.Recoveries ||
			sr.Retries != pr.Retries || sr.Abandoned != pr.Abandoned ||
			sr.Downtime != pr.Downtime || sr.Active != pr.Active ||
			sr.GoodputBytes != pr.GoodputBytes {
			t.Fatalf("arm %d resilience stats differ: %+v vs %+v", i, sr, pr)
		}
		ss, ps := sr.TTR.Sorted(), pr.TTR.Sorted()
		if len(ss) != len(ps) {
			t.Fatalf("arm %d TTR sample counts %d vs %d", i, len(ss), len(ps))
		}
		for j := range ss {
			if ss[j] != ps[j] {
				t.Fatalf("arm %d TTR sample %d: %v vs %v", i, j, ss[j], ps[j])
			}
		}
	}
}

func TestFaultsRecoveryLifecycle(t *testing.T) {
	res, err := Runner{Workers: 4}.Run(faultedScenario())
	if err != nil {
		t.Fatal(err)
	}
	r := res.Arms[0].Resilience
	// The hang blackholes two circuits and the partition darkens all
	// four, so stalls are certain; every fault heals well before the
	// horizon, so recoveries are too.
	if r.Stalls == 0 {
		t.Fatal("fault plan produced no stalls")
	}
	if r.Recoveries == 0 {
		t.Fatal("no download recovered")
	}
	if r.TTR.Len() != r.Recoveries {
		t.Fatalf("%d TTR samples for %d recoveries", r.TTR.Len(), r.Recoveries)
	}
	if r.Retries == 0 {
		t.Fatal("recoveries without rebuild retries")
	}
	if r.Active <= 0 {
		t.Fatalf("active time %v", r.Active)
	}
	if a := r.Availability(); a <= 0 || a >= 1 {
		t.Fatalf("availability %v, want in (0,1) under faults", a)
	}
	if r.GoodputBytes <= 0 {
		t.Fatalf("goodput bytes %v", r.GoodputBytes)
	}
	// Every download terminates decisively: completed, or abandoned
	// after the retry budget (abandons count as aborted outcomes).
	for _, o := range res.Arms[0].Circuits {
		if !o.Done && !o.Aborted {
			t.Fatalf("download %d neither done nor aborted: %+v", o.Index, o)
		}
	}
	if res.Arms[0].TTLB.Len() == 0 {
		t.Fatal("nothing completed under the fault plan")
	}
}

// TestRecoveryNeedsDeliveredBytes pins what a recovery is: the first
// byte at the receiving endpoint on a rebuilt circuit. A partition
// that never heals cuts every download off from its server, while the
// guard on the client's side of the dead trunk keeps acknowledging the
// first cells of each rebuild; those acks are not a recovery. Every
// download must exhaust its budget and be abandoned, with nothing
// recovered.
func TestRecoveryNeedsDeliveredBytes(t *testing.T) {
	sc := faultedScenario()
	sc.Faults.BurstLoss = nil
	sc.Faults.Degrades = nil
	sc.Faults.Partitions = []faults.Partition{{TrunkA: "west", TrunkB: "east", At: 300 * sim.Millisecond}}
	sc.Faults.Recovery = faults.Recovery{Enabled: true, MaxRetries: 1, RTOMax: 500 * time.Millisecond}
	sc.Horizon = 30 * sim.Second
	sc.Replications = 1
	res, err := Runner{Workers: 1}.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	a := res.Arms[0]
	r := a.Resilience
	if r.Recoveries != 0 || r.TTR.Len() != 0 {
		t.Fatalf("%d recoveries (%d TTR samples) across a partition that never heals",
			r.Recoveries, r.TTR.Len())
	}
	if r.Abandoned != 4 || a.Churn.Aborted != 4 {
		t.Fatalf("abandoned %d, aborted %d; want 4 and 4", r.Abandoned, a.Churn.Aborted)
	}
}

// TestRecoveryOnlyPlanPreservesOutcomes pins the observer property of
// the stall detector: on a trial that makes steady progress the
// watchdogs only read state, so enabling recovery on a churn run with
// no fault sources must leave every per-circuit outcome identical.
// (The baseline itself runs with the lifecycle on — a TeardownDelay
// alone turns it on — because a fault plan turns it on too, and a
// static trial would keep its completed circuits up.)
func TestRecoveryOnlyPlanPreservesOutcomes(t *testing.T) {
	base := testScenario()
	base.CircuitEvents.TeardownDelay = 10 * time.Millisecond
	plain, err := Runner{Workers: 2}.Run(base)
	if err != nil {
		t.Fatal(err)
	}
	watched := testScenario()
	watched.CircuitEvents.TeardownDelay = 10 * time.Millisecond
	watched.Faults = faults.Plan{Recovery: faults.Recovery{Enabled: true}}
	guarded, err := Runner{Workers: 2}.Run(watched)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsIdentical(t, plain, guarded)
	r := guarded.Arms[0].Resilience
	if r.Stalls != 0 || r.Retries != 0 || r.Abandoned != 0 {
		t.Fatalf("fault-free run reported stalls: %+v", r)
	}
}

// TestFaultedTrialPoolBalance is the leak check for the faulted
// execution paths: every frame dropped by a downed link, a loss model
// or a hung relay must return to the arena's frame pool, and no
// watchdog or fault timer may keep rearming after the trial's circuits
// are gone.
func TestFaultedTrialPoolBalance(t *testing.T) {
	sc := faultedScenario()
	if err := sc.validate(); err != nil {
		t.Fatal(err)
	}
	ar := arena.New()
	_, _, _, resil, err := runChurn(sc, sc.Arms[0], sc.Seed, 0, ar)
	if err != nil {
		t.Fatal(err)
	}
	if resil.Stalls == 0 {
		t.Fatal("trial exercised no faulted paths")
	}
	// The engine stops its clock at the last terminal download; drain
	// the stragglers (in-flight frames, fault heal events) to the rest
	// state the pool contract is defined at.
	ar.Clock.Run()
	if p := ar.Clock.Pending(); p != 0 {
		t.Fatalf("%d events still pending after a drained faulted trial", p)
	}
	if err := ar.Balance(); err != nil {
		t.Fatalf("pool leak after faulted trial: %v", err)
	}
}

// TestFaultsValidation checks that bad plans are refused at scenario
// validation with errors naming the offending entry, and that netem
// misconfiguration surfaces as a validation error rather than a panic
// inside a trial worker.
func TestFaultsValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Scenario)
		want string
	}{
		{"unknown relay", func(sc *Scenario) {
			sc.Faults.Degrades[0].Relay = "ghost"
		}, "unknown relay"},
		{"bad probability", func(sc *Scenario) {
			sc.Faults.BurstLoss[0].LossBad = 1.5
		}, "loss-bad"},
		{"inverted window", func(sc *Scenario) {
			sc.Faults.BurstLoss[0].Until = sc.Faults.BurstLoss[0].From
		}, "window"},
		{"unknown trunk", func(sc *Scenario) {
			sc.Faults.Partitions[0].TrunkA = "north"
		}, "unknown trunk"},
		{"bad rate factor", func(sc *Scenario) {
			sc.Faults.Degrades[0].Mode = faults.DegradeSlow
			sc.Faults.Degrades[0].RateFactor = 0
		}, "rate factor"},
		{"inverted RTO bounds", func(sc *Scenario) {
			sc.Faults.Recovery.RTOMin = 5 * time.Second
		}, "RTO bounds"},
		{"bad access rate", func(sc *Scenario) {
			sc.Topology.Relays[0].Access.UpRate = 0
		}, "g-000"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := faultedScenario()
			tc.mut(&sc)
			_, err := Run(sc)
			if err == nil {
				t.Fatal("invalid scenario accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	// A partition on a topology without a fabric must be refused too.
	pop := workload.DefaultRelayParams(8)
	sc := Scenario{
		Name:     "no-fabric",
		Seed:     1,
		Topology: Topology{Population: &pop},
		Circuits: CircuitSet{Count: 2, TransferSize: 100 * units.Kilobyte},
		Arms:     []Arm{{Name: "a", Transport: core.TransportOptions{}}},
		Faults: faults.Plan{Partitions: []faults.Partition{{
			TrunkA: "west", TrunkB: "east", At: sim.Second,
		}}},
		Horizon: 60 * sim.Second,
	}
	if _, err := Run(sc); err == nil || !strings.Contains(err.Error(), "no fabric") {
		t.Fatalf("partition without fabric: err = %v", err)
	}
}

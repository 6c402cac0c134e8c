package scenario

import (
	"fmt"
	"testing"
	"time"

	"circuitstart/internal/faults"
	"circuitstart/internal/netem"
	"circuitstart/internal/sim"
	"circuitstart/internal/units"
	"circuitstart/internal/workload"
)

// shardedChurnScenario is the determinism workhorse: a generated
// population on an 8-switch ring (so an 8-way partition is real, not
// degenerate), with every dynamic feature the sharded engine supports
// turned on at once — churn arrivals, a scheduled teardown, relay
// fail/recover with rebuild, burst loss, jitter, a flap, a trunk
// partition, a slow-degrade, and TrainSize > 1.
func shardedChurnScenario(shards int) Scenario {
	bp := workload.DefaultBackboneParams(24, 8)
	bp.TrunkRate = units.Mbps(150)
	spec, err := workload.GenerateBackbone(bp)
	if err != nil {
		panic(err)
	}
	return Scenario{
		Name:     "sharded-churn",
		Seed:     11,
		Shards:   shards,
		Topology: Topology{Population: &bp.Relays, Fabric: &spec},
		Circuits: CircuitSet{
			Count:        6,
			Hops:         3,
			TransferSize: 300 * units.Kilobyte,
			Arrival:      Arrival{Kind: ArriveUniform, Spread: 80 * time.Millisecond},
		},
		Arms: []Arm{
			{Name: "plain"},
			{Name: "rebuild", Rebuild: true},
		},
		CircuitEvents: CircuitEvents{
			ArrivalRate:   4,
			Arrivals:      8,
			TeardownDelay: 150 * time.Millisecond,
			Teardowns:     []TeardownEvent{{At: 400 * sim.Millisecond, Index: 2}},
		},
		RelayEvents: []RelayEvent{
			{At: 500 * sim.Millisecond, Relay: workload.RelayID(3), Kind: RelayFail},
			{At: 2 * sim.Second, Relay: workload.RelayID(3), Kind: RelayRecover},
		},
		Faults: faults.Plan{
			BurstLoss: []faults.BurstLoss{{
				Relay: workload.RelayID(5), From: 100 * sim.Millisecond, Until: 3 * sim.Second,
				PGoodBad: 0.02, PBadGood: 0.1, LossBad: 0.4,
			}},
			Jitter: []faults.Jitter{{
				Relay: workload.RelayID(7), From: 100 * sim.Millisecond, Until: 3 * sim.Second,
				Amplitude: 2 * time.Millisecond, SpikeProb: 0.01, SpikeDelay: 20 * time.Millisecond,
			}},
			Flaps: []faults.Flap{{
				Relay: workload.RelayID(9), DownAt: 700 * sim.Millisecond,
				UpAfter: 200 * time.Millisecond, Repeat: 1, Every: time.Second,
			}},
			Partitions: []faults.Partition{{
				TrunkA: workload.SwitchID(0), TrunkB: workload.SwitchID(1),
				At: 900 * sim.Millisecond, HealAfter: 300 * time.Millisecond,
			}},
			Degrades: []faults.Degrade{{
				Relay: workload.RelayID(11), Mode: faults.DegradeSlow,
				At: 300 * sim.Millisecond, RateFactor: 0.25, RecoverAfter: 2 * time.Second,
			}},
		},
		TrainSize:    2,
		Horizon:      120 * sim.Second,
		Replications: 2,
	}
}

// assertShardedStatsIdentical extends assertResultsIdentical to the
// stats the sharded engine must also pin: per-trunk counters (frame for
// frame) and the churn ledger.
func assertShardedStatsIdentical(t *testing.T, a, b *Result) {
	t.Helper()
	assertResultsIdentical(t, a, b)
	for i := range a.Arms {
		an, bn := a.Arms[i].Net, b.Arms[i].Net
		if an.UnknownDst != bn.UnknownDst || an.Unroutable != bn.Unroutable || an.SchedDrops != bn.SchedDrops {
			t.Fatalf("arm %d drop counters differ: %+v vs %+v", i, an, bn)
		}
		if len(an.Trunks) != len(bn.Trunks) {
			t.Fatalf("arm %d trunk counts %d vs %d", i, len(an.Trunks), len(bn.Trunks))
		}
		for j := range an.Trunks {
			if an.Trunks[j] != bn.Trunks[j] {
				t.Fatalf("arm %d trunk %d differs: %+v vs %+v", i, j, an.Trunks[j], bn.Trunks[j])
			}
		}
		ac, bc := a.Arms[i].Churn, b.Arms[i].Churn
		if ac.Built != bc.Built || ac.TornDown != bc.TornDown || ac.Aborted != bc.Aborted ||
			ac.Rebuilt != bc.Rebuilt || ac.Rejected != bc.Rejected {
			t.Fatalf("arm %d churn differs: %+v vs %+v", i, ac, bc)
		}
		as, bs := ac.Lifetime.Sorted(), bc.Lifetime.Sorted()
		if len(as) != len(bs) {
			t.Fatalf("arm %d lifetime sample counts %d vs %d", i, len(as), len(bs))
		}
		for j := range as {
			if as[j] != bs[j] {
				t.Fatalf("arm %d lifetime sample %d: %v vs %v", i, j, as[j], bs[j])
			}
		}
	}
}

func TestShardedShardCountInvariance(t *testing.T) {
	// The tentpole contract: the same scenario is byte-identical at
	// every shard count, faults, churn and cell trains included.
	// Shards: 1 is the reference single-shard run.
	ref, err := Runner{Workers: 1}.Run(shardedChurnScenario(1))
	if err != nil {
		t.Fatal(err)
	}
	if ref.Arms[1].Churn.Rebuilt == 0 {
		t.Fatalf("rebuild arm never rebuilt a circuit — the relay failure missed every path")
	}
	done := 0
	for _, o := range ref.Arms[0].Circuits {
		if o.Done {
			done++
		}
	}
	if done == 0 {
		t.Fatalf("no transfer completed on the reference run")
	}
	for _, shards := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			got, err := Runner{Workers: 1}.Run(shardedChurnScenario(shards))
			if err != nil {
				t.Fatal(err)
			}
			assertShardedStatsIdentical(t, ref, got)
		})
	}
}

// shardMatrixScenario is one cell of the generated determinism matrix: a
// small Poisson-arrival population on the given backbone with jitter
// and two-cell trains on, so simultaneous deliveries from different
// trunks into one switch — the ties a plan must not be able to reorder
// — do occur.
func shardMatrixScenario(kind workload.BackboneKind, switches int, seed int64, shards int) Scenario {
	bp := workload.DefaultBackboneParams(24, switches)
	bp.Kind = kind
	spec, err := workload.GenerateBackbone(bp)
	if err != nil {
		panic(err)
	}
	return Scenario{
		Name:     "shard-matrix",
		Seed:     seed,
		Shards:   shards,
		Topology: Topology{Population: &bp.Relays, Fabric: &spec},
		Circuits: CircuitSet{
			Count:        6,
			Hops:         3,
			TransferSize: 100 * units.Kilobyte,
			Arrival:      Arrival{Kind: ArrivePoisson, Rate: 40},
		},
		Arms: []Arm{{Name: "circuitstart"}},
		Faults: faults.Plan{
			Jitter: []faults.Jitter{{
				Relay: workload.RelayID(3), From: 200 * sim.Millisecond, Until: 4 * sim.Second,
				Amplitude: 3 * time.Millisecond, SpikeProb: 0.02, SpikeDelay: 30 * time.Millisecond,
			}},
		},
		TrainSize:    2,
		Horizon:      120 * sim.Second,
		Replications: 1,
	}
}

// TestShardedPlanInvariance runs a generated matrix — odd and even
// rings, a line and a full mesh, several seeds — at 1 to 4 shards and
// requires every cell byte-identical to its one-shard run. The fixtures
// above only ever produce plans that cut every trunk or none; odd rings
// and uneven splits produce plans that cut some trunks and leave others
// local to a shard, where a tie between a local and an imported
// delivery must still resolve the same way. The test asserts the matrix
// contains such plans.
func TestShardedPlanInvariance(t *testing.T) {
	type backbone struct {
		kind     workload.BackboneKind
		switches int
	}
	backbones := []backbone{
		{workload.BackboneRing, 5}, {workload.BackboneRing, 7},
		{workload.BackboneRing, 8}, {workload.BackboneRing, 9},
		{workload.BackboneLine, 6}, {workload.BackboneFull, 5},
	}
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	if testing.Short() {
		seeds = seeds[:3]
	}
	mixed := 0
	for _, bb := range backbones {
		for _, shards := range []int{2, 3, 4} {
			sc := shardMatrixScenario(bb.kind, bb.switches, 1, shards)
			plan, err := netem.PartitionGraph(*sc.Topology.Fabric, shards)
			if err != nil {
				t.Fatal(err)
			}
			cut := 0
			for _, tr := range sc.Topology.Fabric.Trunks {
				if plan.Assign[tr.A] != plan.Assign[tr.B] {
					cut++
				}
			}
			if cut > 0 && cut < len(sc.Topology.Fabric.Trunks) {
				mixed++
			}
		}
		for _, seed := range seeds {
			ref, err := Runner{Workers: 1}.Run(shardMatrixScenario(bb.kind, bb.switches, seed, 1))
			if err != nil {
				t.Fatal(err)
			}
			for _, shards := range []int{2, 3, 4} {
				shards := shards
				t.Run(fmt.Sprintf("%s%d/seed=%d/shards=%d", bb.kind, bb.switches, seed, shards), func(t *testing.T) {
					got, err := Runner{Workers: 1}.Run(shardMatrixScenario(bb.kind, bb.switches, seed, shards))
					if err != nil {
						t.Fatal(err)
					}
					assertShardedStatsIdentical(t, ref, got)
				})
			}
		}
	}
	if mixed == 0 {
		t.Fatalf("no plan in the matrix mixes cut and uncut trunks")
	}
}

func TestShardedWorkerCountDeterminism(t *testing.T) {
	// Worker-pool parallelism composes with shard parallelism: trials
	// are pure functions of their seeds regardless of which worker's
	// recycled arenas they run in.
	serial, err := Runner{Workers: 1}.Run(shardedChurnScenario(4))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Runner{Workers: 8}.Run(shardedChurnScenario(4))
	if err != nil {
		t.Fatal(err)
	}
	assertShardedStatsIdentical(t, serial, parallel)
}

func TestShardedLookaheadNeverViolatedUnderChurn(t *testing.T) {
	// The conservative bound, end to end: every handoff imported at a
	// barrier must land strictly ahead of the destination shard's parked
	// clock. The hook fires on the coordinator with all shards parked.
	violations := 0
	imports := 0
	netem.ShardLookaheadCheck = func(shard int, clockNow, arrival sim.Time) {
		imports++
		if !arrival.After(clockNow) {
			violations++
			t.Errorf("shard %d: handoff arrival %v not after parked clock %v", shard, arrival, clockNow)
		}
	}
	defer func() { netem.ShardLookaheadCheck = nil }()

	sc := shardedChurnScenario(4)
	sc.Replications = 1
	if _, err := (Runner{Workers: 1}).Run(sc); err != nil {
		t.Fatal(err)
	}
	if imports == 0 {
		t.Fatalf("no handoff ever crossed a shard boundary — the partition is degenerate")
	}
	if violations != 0 {
		t.Fatalf("%d of %d imports violated the lookahead bound", violations, imports)
	}
}

// TestShardedChurnRaceStress is the race-detector smoke: a high-churn
// trial over a small-lookahead fabric at 4 shards, so frames cross
// boundaries every window while relay events, faults and completions
// exercise the barrier paths. Run under -race in CI.
func TestShardedChurnRaceStress(t *testing.T) {
	bp := workload.DefaultBackboneParams(16, 4)
	bp.TrunkDelay = time.Millisecond // small lookahead: many windows
	spec, err := workload.GenerateBackbone(bp)
	if err != nil {
		t.Fatal(err)
	}
	sc := Scenario{
		Name:     "sharded-race-stress",
		Seed:     13,
		Shards:   4,
		Topology: Topology{Population: &bp.Relays, Fabric: &spec},
		Circuits: CircuitSet{
			Count:        4,
			Hops:         3,
			TransferSize: 150 * units.Kilobyte,
			Arrival:      Arrival{Kind: ArriveUniform, Spread: 40 * time.Millisecond},
		},
		Arms: []Arm{{Name: "rebuild", Rebuild: true}},
		CircuitEvents: CircuitEvents{
			ArrivalRate:   10,
			Arrivals:      10,
			TeardownDelay: 50 * time.Millisecond,
		},
		RelayEvents: []RelayEvent{
			{At: 300 * sim.Millisecond, Relay: workload.RelayID(1), Kind: RelayFail},
			{At: sim.Second, Relay: workload.RelayID(1), Kind: RelayRecover},
		},
		Faults: faults.Plan{
			Jitter: []faults.Jitter{{
				Relay: workload.RelayID(2), From: 50 * sim.Millisecond, Until: 5 * sim.Second,
				Amplitude: time.Millisecond,
			}},
		},
		Horizon:      60 * sim.Second,
		Replications: 1,
	}
	res, err := Runner{Workers: 2}.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Arms[0].Churn.Built == 0 {
		t.Fatalf("stress run built no circuits")
	}
}

func TestShardedStaticExplicitTopology(t *testing.T) {
	// The sharded engine also runs churn-free explicit-path trials; the
	// transfers must complete and the per-download TTLB must be sane.
	sc := sharedTrunkScenario(units.Mbps(40), nil)
	sc.Shards = 2
	res, err := Runner{Workers: 1}.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Arms[0].Incomplete != 0 {
		t.Fatalf("incomplete transfers: %d", res.Arms[0].Incomplete)
	}
	for _, o := range res.Arms[0].Circuits {
		if !o.Done || o.TTLB <= 0 {
			t.Fatalf("outcome %d not done or zero TTLB: %+v", o.Index, o)
		}
	}
	// Shard counts beyond the cut count collapse onto the same
	// partition, so results stay identical even at absurd counts.
	huge := sharedTrunkScenario(units.Mbps(40), nil)
	huge.Shards = 64
	res64, err := Runner{Workers: 1}.Run(huge)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsIdentical(t, res, res64)
}

func TestShardedValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Scenario)
	}{
		{"negative shards", func(s *Scenario) { s.Shards = -1 }},
		{"no fabric", func(s *Scenario) { s.Topology.Fabric = nil }},
		{"trunk loss", func(s *Scenario) { s.Topology.Fabric.Trunks[0].Config.LossProb = 0.01 }},
		{"client access loss", func(s *Scenario) { s.ClientAccess.LossProb = 0.01 }},
		{"link events", func(s *Scenario) {
			s.Events = []LinkEvent{{At: sim.Second, TrunkA: workload.SwitchID(0), TrunkB: workload.SwitchID(1), Rate: units.Mbps(10)}}
		}},
		{"resource limits", func(s *Scenario) { s.Arms[0].Relay.Limits.MaxCircuits = 1 }},
		{"fault recovery", func(s *Scenario) {
			s.Faults.Recovery = faults.Recovery{Enabled: true, MaxRetries: 2, RTOMax: time.Second}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := shardedChurnScenario(2)
			tc.mutate(&sc)
			if _, err := (Runner{Workers: 1}).Run(sc); err == nil {
				t.Fatalf("%s accepted by sharded validation", tc.name)
			}
		})
	}
}

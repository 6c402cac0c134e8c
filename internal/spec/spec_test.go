package spec

import (
	"fmt"
	"strings"
	"testing"

	"circuitstart/internal/scenario"
	"circuitstart/internal/sim"
	"circuitstart/internal/units"
	"circuitstart/internal/workload"
)

// specCorpus is a set of valid specs spanning both base kinds and
// every dimension axis — the property-test inputs for the canonical
// round trip and the hash tests.
var specCorpus = []string{
	`{"dimensions": [{"gammas": [2, 4]}]}`,
	`{"name": "trace-bw", "seed": 7, "base": {"kind": "trace", "hops": 4, "distance": 2},
	  "dimensions": [{"bandwidths_mbps": [8, 16.5]}, {"hopcounts": [3, 4]}]}`,
	`{"base": {"kind": "population", "relays": 10, "circuits": 3, "size_bytes": 100000},
	  "dimensions": [{"counts": [2, 3]}, {"policies": ["circuitstart", "backtap"]}]}`,
	`{"base": {"kind": "population", "relays": 10, "circuits": 3, "size_dist": "lognormal:200000:0.75"},
	  "dimensions": [{"size_dists": ["fixed:100000", "pareto:100000:1.2:10000000"]}]}`,
	`{"base": {"kind": "population", "relays": 10, "circuits": 3, "size_bytes": 100000,
	   "horizon_sec": 120, "spread_ms": 0, "scheduler": "ewma", "max_circuits": 6,
	   "kill_policy": "kill-oldest"},
	  "dimensions": [{"trains": [0, 4]}, {"seeds": [1, 2]}]}`,
	`{"base": {"kind": "population", "relays": 12, "circuits": 3, "size_bytes": 100000,
	   "switches": 3, "poisson_rate": 20},
	  "dimensions": [{"shardcounts": [1, 2]}]}`,
	`{"base": {"kind": "population", "relays": 10, "circuits": 3, "size_bytes": 100000,
	   "faults": "recovery"},
	  "dimensions": [{"faults": ["none", "hang"]}, {"schedulers": ["fifo", "ewma"]}]}`,
	`{"base": {"kind": "population", "relays": 10, "circuits": 4, "size_bytes": 50000,
	   "download": true,
	   "population": {"median_mbps": 20, "sigma": 0.5, "delay_min_ms": 5, "delay_max_ms": 30}},
	  "dimensions": [{"gammas": [2]}], "sample": 1, "sample_seed": 9}`,
	`{"base": {"kind": "population", "relays": 8, "circuits": 2, "size_bytes": 40000,
	   "fault_plan": {"burst_loss": [{"relay": "relay-01", "from_s": 0.5, "until_s": 2}]}},
	  "dimensions": [{"counts": [2, 3]}]}`,
}

// TestMarshalParseFixedPoint is the round-trip property the schema
// documents: Marshal(Parse(x)) is canonical, and parsing the canonical
// form reproduces it byte-identically (Marshal ∘ Parse is a fixed
// point).
func TestMarshalParseFixedPoint(t *testing.T) {
	for i, src := range specCorpus {
		f, err := Parse([]byte(src))
		if err != nil {
			t.Fatalf("corpus[%d]: %v", i, err)
		}
		canon, err := Marshal(f)
		if err != nil {
			t.Fatalf("corpus[%d]: marshal: %v", i, err)
		}
		f2, err := Parse(canon)
		if err != nil {
			t.Fatalf("corpus[%d]: reparse canonical: %v\n%s", i, err, canon)
		}
		canon2, err := Marshal(f2)
		if err != nil {
			t.Fatalf("corpus[%d]: remarshal: %v", i, err)
		}
		if string(canon) != string(canon2) {
			t.Errorf("corpus[%d]: canonical form is not a fixed point:\n--- first ---\n%s--- second ---\n%s",
				i, canon, canon2)
		}
	}
}

// TestParseRendersEagerly pins the contract that a spec that parses
// also renders: every corpus entry must produce a non-empty grid.
func TestParseRendersEagerly(t *testing.T) {
	for i, src := range specCorpus {
		f, err := Parse([]byte(src))
		if err != nil {
			t.Fatalf("corpus[%d]: %v", i, err)
		}
		sw, err := f.Sweep()
		if err != nil {
			t.Fatalf("corpus[%d]: sweep: %v", i, err)
		}
		pts, err := sw.Points()
		if err != nil {
			t.Fatalf("corpus[%d]: points: %v", i, err)
		}
		if len(pts) == 0 {
			t.Errorf("corpus[%d]: empty grid", i)
		}
	}
}

// TestParseErrorsNameTheEntry checks eager validation: malformed specs
// are rejected at Parse with an error naming the offending entry —
// never inside a worker.
func TestParseErrorsNameTheEntry(t *testing.T) {
	cases := []struct {
		src  string
		want string // substring the error must carry
	}{
		{`{"version": 2, "dimensions": [{"gammas": [2]}]}`, "version"},
		{`{"dimensions": [{"gammas": [2]}], "bogus": true}`, "bogus"},
		{`{"dimensions": [{"gammas": [2]}]} trailing`, "trailing"},
		{`{"dimensions": []}`, "dimension"},
		{`{"dimensions": [{}]}`, "dimensions[0]"},
		{`{"dimensions": [{"gammas": [2], "counts": [3]}]}`, "dimensions[0]"},
		{`{"base": {"kind": "warp"}, "dimensions": [{"gammas": [2]}]}`, "warp"},
		{`{"base": {"kind": "trace", "relays": 10}, "dimensions": [{"gammas": [2]}]}`, "relays"},
		{`{"base": {"kind": "trace", "size_dist": "fixed:1"}, "dimensions": [{"gammas": [2]}]}`, "size_dist"},
		{`{"base": {"kind": "population", "distance": 2}, "dimensions": [{"gammas": [2]}]}`, "distance"},
		{`{"base": {"kind": "population", "size_bytes": 100, "size_dist": "fixed:100"}, "dimensions": [{"gammas": [2]}]}`, "size_dist"},
		{`{"base": {"kind": "population", "size_dist": "triangular:5"}, "dimensions": [{"gammas": [2]}]}`, "triangular"},
		{`{"base": {"kind": "population", "spread_ms": 10, "poisson_rate": 5}, "dimensions": [{"gammas": [2]}]}`, "poisson"},
		{`{"base": {"kind": "population", "kill_policy": "kill-nicest"}, "dimensions": [{"gammas": [2]}]}`, "kill-nicest"},
		{`{"base": {"scheduler": "lifo"}, "dimensions": [{"gammas": [2]}]}`, "lifo"},
		{`{"base": {"faults": "meteor"}, "dimensions": [{"gammas": [2]}]}`, "meteor"},
		{`{"base": {"faults": "hang", "fault_plan": {}}, "dimensions": [{"gammas": [2]}]}`, "fault"},
		{`{"base": {"distance": 9, "hops": 3}, "dimensions": [{"gammas": [2]}]}`, "distance"},
		{`{"sample": -1, "dimensions": [{"gammas": [2]}]}`, "sample"},
		{`{"dimensions": [{"size_dists": ["pareto:10:1.1:5"]}]}`, "pareto"},
		{`{"dimensions": [{"unknown_axis": [1]}]}`, "unknown_axis"},
		{`{"dimensions": [{"hopcounts": [0]}]}`, "dimensions[0]: hop count 0"},
		{`{"dimensions": [{"gammas": [2]}, {"hopcounts": [3, -1]}]}`, "dimensions[1]: hop count -1"},
		{`{"base": {"kind": "population"}, "dimensions": [{"hopcounts": [2, 0]}]}`, "dimensions[0]: hop count 0"},
	}
	for i, c := range cases {
		_, err := Parse([]byte(c.src))
		if err == nil {
			t.Errorf("case %d accepted: %s", i, c.src)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("case %d: error %q does not name %q", i, err, c.want)
		}
	}
}

// TestBaseHashIgnoresGridShape pins the cache-identity contract: the
// base hash depends only on the resolved base scenario, not on the
// submission's name, dimensions, or sampling — that is what lets
// overlapping grids from different submissions share cached points.
func TestBaseHashIgnoresGridShape(t *testing.T) {
	a, err := Parse([]byte(`{"name": "first", "dimensions": [{"gammas": [2, 4]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Parse([]byte(`{"name": "second", "dimensions": [{"gammas": [2, 4, 8]}, {"bandwidths_mbps": [8]}], "sample": 2}`))
	if err != nil {
		t.Fatal(err)
	}
	ha, err := a.BaseHash()
	if err != nil {
		t.Fatal(err)
	}
	hb, err := b.BaseHash()
	if err != nil {
		t.Fatal(err)
	}
	if ha != hb {
		t.Errorf("base hash differs across grid shapes: %s vs %s", ha, hb)
	}

	c, err := Parse([]byte(`{"seed": 43, "dimensions": [{"gammas": [2, 4]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	hc, err := c.BaseHash()
	if err != nil {
		t.Fatal(err)
	}
	if hc == ha {
		t.Error("base hash ignored the seed — distinct scenarios would collide in the cache")
	}
}

// TestPointKeyUnambiguous checks that the point key separates
// dimension names from coordinates: permuted or shifted pairs must not
// collide.
func TestPointKeyUnambiguous(t *testing.T) {
	base := strings.Repeat("ab", 32)
	keys := map[string]string{}
	for _, c := range []struct {
		dims, coords []string
	}{
		{[]string{"gamma", "bw"}, []string{"2", "8"}},
		{[]string{"gamma", "bw"}, []string{"8", "2"}},
		{[]string{"bw", "gamma"}, []string{"2", "8"}},
		{[]string{"gamma"}, []string{"2"}},
		{[]string{"gamma"}, []string{"2=8"}},
		{[]string{"gamma="}, []string{"8"}},
	} {
		k := PointKey(base, c.dims, c.coords)
		if prev, ok := keys[k]; ok {
			t.Errorf("collision: %v/%v and %s share key %s", c.dims, c.coords, prev, k)
		}
		keys[k] = fmt.Sprintf("%v/%v", c.dims, c.coords)
	}
	if k := PointKey("other", []string{"gamma"}, []string{"2"}); k == PointKey(base, []string{"gamma"}, []string{"2"}) {
		t.Error("point key ignored the base hash")
	}
}

// TestFromScenarioRoundTrip checks the inverse renderer: a scenario
// built from a spec converts back to a spec that renders the same
// scenario (SpecFromScenario ∘ render = identity on the spec side).
func TestFromScenarioRoundTrip(t *testing.T) {
	src := `{"seed": 7,
	  "base": {"kind": "population", "relays": 10, "circuits": 3, "size_bytes": 100000,
	   "horizon_sec": 120, "scheduler": "ewma", "faults": "hang"},
	  "dimensions": [{"gammas": [2]}]}`
	f, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	sc, _, err := f.Base.scenario(f.Name, *f.Seed)
	if err != nil {
		t.Fatal(err)
	}
	back, err := FromScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	if back.Base.Kind != "population" || back.Base.Relays != 10 ||
		back.Base.Circuits != 3 || back.Base.SizeBytes != 100000 ||
		back.Base.HorizonSec != 120 || back.Base.Scheduler != "ewma" {
		t.Errorf("round-tripped base lost fields: %+v", back.Base)
	}
	if len(back.Base.FaultPlan) == 0 {
		t.Error("round-tripped base lost the fault plan")
	}
	sc2, _, err := back.Base.scenario(back.Name, *back.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if sc2.Circuits.Count != sc.Circuits.Count || sc2.Horizon != sc.Horizon ||
		len(sc2.Faults.BurstLoss) != len(sc.Faults.BurstLoss) {
		t.Errorf("re-rendered scenario differs: %+v vs %+v", sc2.Circuits, sc.Circuits)
	}
}

// TestFromScenarioRejectsUnrepresentable checks that scenarios the
// wire schema cannot express are refused by name instead of silently
// dropped.
func TestFromScenarioRejectsUnrepresentable(t *testing.T) {
	pop := workload.DefaultRelayParams(8)
	base := scenario.Scenario{
		Name:     "x",
		Seed:     1,
		Topology: scenario.Topology{Population: &pop},
		Circuits: scenario.CircuitSet{Count: 2, Hops: 3, TransferSize: 1000},
		Arms:     []scenario.Arm{{Name: "circuitstart"}},
		Horizon:  10 * sim.Second,
	}
	base.Arms[0].Transport.Policy = "circuitstart"

	reps := base
	reps.Replications = 3
	mix := base
	mix.Circuits.SizeMix = []units.DataSize{1, 2}
	badArm := base
	badArm.Arms = []scenario.Arm{{Name: "renamed"}}
	badArm.Arms[0].Transport.Policy = "circuitstart"

	for i, c := range []struct {
		sc   scenario.Scenario
		want string
	}{
		{reps, "Replications"},
		{mix, "SizeMix"},
		{badArm, "arm"},
	} {
		_, err := FromScenario(c.sc)
		if err == nil {
			t.Errorf("case %d accepted", i)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("case %d: error %q does not name %q", i, err, c.want)
		}
	}
}

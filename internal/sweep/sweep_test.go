package sweep_test

import (
	"bytes"
	"errors"
	"strconv"
	"strings"
	"testing"
	"time"

	"circuitstart/internal/experiments"
	"circuitstart/internal/scenario"
	"circuitstart/internal/sim"
	"circuitstart/internal/spec"
	"circuitstart/internal/sweep"
	"circuitstart/internal/units"
	"circuitstart/internal/workload"
)

// traceBase is the distant-bottleneck single-circuit trace scenario the
// gamma ablation runs on, as a one-arm sweep base.
func traceBase(seed int64) scenario.Scenario {
	p := experiments.DefaultCwndTraceParams(3)
	p.Seed = seed
	return p.Scenario([]scenario.Arm{{Name: "trace"}})
}

// popBase is a small generated-population scenario cheap enough for
// grid tests.
func popBase(arms ...scenario.Arm) scenario.Scenario {
	pop := workload.DefaultRelayParams(8)
	return scenario.Scenario{
		Name:     "sweep-test",
		Seed:     7,
		Topology: scenario.Topology{Population: &pop},
		Circuits: scenario.CircuitSet{
			Count:        2,
			TransferSize: 50 * units.Kilobyte,
			Arrival:      scenario.Arrival{Kind: scenario.ArriveUniform, Spread: 50 * time.Millisecond},
		},
		Arms:    arms,
		Horizon: 120 * sim.Second,
	}
}

// captureSink retains every full PointResult for assertions the compact
// table drops.
type captureSink struct {
	meta    sweep.Meta
	results []*sweep.PointResult
}

func (c *captureSink) Begin(meta sweep.Meta) error { c.meta = meta; return nil }
func (c *captureSink) Point(pr *sweep.PointResult) error {
	c.results = append(c.results, pr)
	return nil
}
func (c *captureSink) Flush() error { return nil }

// TestGammaSweepReproducesAblation pins the acceptance contract: the
// fixed gamma ablation is a point query on the sweep engine. A 1-D γ
// sweep over the same base scenario reproduces AblationGamma's numbers
// exactly — same exit window, exit time, optimum, peak, final window
// and settle time per γ.
func TestGammaSweepReproducesAblation(t *testing.T) {
	gammas := []float64{1, 2, 4, 8, 16}
	rows, err := experiments.AblationGamma(42, gammas)
	if err != nil {
		t.Fatal(err)
	}

	cap := &captureSink{}
	tbl, err := sweep.Engine{Workers: 2}.Run(sweep.Sweep{
		Name:       "gamma",
		Base:       traceBase(42),
		Dimensions: []sweep.Dimension{axis(`{"gammas": [1, 2, 4, 8, 16]}`)},
	}, cap)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != len(gammas) || len(cap.results) != len(gammas) {
		t.Fatalf("sweep produced %d rows, %d results; want %d", len(tbl.Rows), len(cap.results), len(gammas))
	}
	for i, row := range rows {
		sr := tbl.Rows[i]
		if got, want := sr.Coords[0], strings.TrimPrefix(row.Label, "gamma="); got != want {
			t.Fatalf("point %d coord = %q, want %q", i, got, want)
		}
		if sr.ExitCwndMean != row.ExitCwnd {
			t.Errorf("gamma=%s: sweep exit cwnd %v, ablation %v", sr.Coords[0], sr.ExitCwndMean, row.ExitCwnd)
		}
		if sr.ExitTimeMedian != row.ExitTime.Seconds() {
			t.Errorf("gamma=%s: sweep exit time %v, ablation %v", sr.Coords[0], sr.ExitTimeMedian, row.ExitTime.Seconds())
		}
		o := cap.results[i].Result.Arms[0].Circuits[0]
		if o.OptimalCells != row.OptimalCells {
			t.Errorf("gamma=%s: optimal %v, ablation %v", sr.Coords[0], o.OptimalCells, row.OptimalCells)
		}
		if peak, ok := o.Trace.Max(); !ok || peak != row.PeakCells {
			t.Errorf("gamma=%s: peak %v, ablation %v", sr.Coords[0], peak, row.PeakCells)
		}
		if last, ok := o.Trace.Last(); !ok || last.Value != row.FinalCells {
			t.Errorf("gamma=%s: final %v, ablation %v", sr.Coords[0], last.Value, row.FinalCells)
		}
		settle := sim.Time(-1)
		if at, ok := o.Trace.ConvergeTime(o.OptimalCells, o.OptimalCells*0.5, 0.2); ok {
			settle = at
		}
		if settle != row.SettleTime {
			t.Errorf("gamma=%s: settle %v, ablation %v", sr.Coords[0], settle, row.SettleTime)
		}
	}
}

// TestSweepWorkerDeterminism pins the byte-identity contract: the same
// grid streamed through the CSV and JSONL sinks produces identical
// bytes for 1 worker and 8 workers.
func TestSweepWorkerDeterminism(t *testing.T) {
	run := func(workers int) (csv, jsonl string) {
		var cb, jb bytes.Buffer
		sw := sweep.Sweep{
			Name: "det",
			Base: popBase(scenario.Arm{Name: "circuitstart"}),
			Dimensions: []sweep.Dimension{
				axis(`{"gammas": [2, 4]}`),
				axis(`{"sizes_bytes": [30000, 60000]}`),
			},
		}
		if _, err := (sweep.Engine{Workers: workers}).Run(sw, sweep.NewCSVSink(&cb), sweep.NewJSONLSink(&jb)); err != nil {
			t.Fatal(err)
		}
		return cb.String(), jb.String()
	}
	csv1, jsonl1 := run(1)
	csv8, jsonl8 := run(8)
	if csv1 != csv8 {
		t.Errorf("CSV differs between 1 and 8 workers:\n--- 1 ---\n%s\n--- 8 ---\n%s", csv1, csv8)
	}
	if jsonl1 != jsonl8 {
		t.Errorf("JSONL differs between 1 and 8 workers:\n--- 1 ---\n%s\n--- 8 ---\n%s", jsonl1, jsonl8)
	}
	if lines := strings.Count(csv1, "\n"); lines != 1+4 {
		t.Errorf("CSV has %d lines, want header + 4 rows", lines)
	}
}

// TestSampleCap checks the sampling draw: deterministic, in grid
// order, of the requested size, and stable across worker counts.
func TestSampleCap(t *testing.T) {
	sw := sweep.Sweep{
		Name: "sampled",
		Base: traceBase(42),
		Dimensions: []sweep.Dimension{
			axis(`{"gammas": [1, 2, 4, 8]}`),
			axis(`{"sizes_bytes": [1000000, 2000000]}`),
		},
		Sample: 3,
	}
	pts, err := sw.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("sampled %d points, want 3", len(pts))
	}
	if n, err := sw.Count(); err != nil || n != len(pts) {
		t.Fatalf("Count = %d, %v; want %d", n, err, len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Index <= pts[i-1].Index {
			t.Fatalf("sample not in grid order: %d after %d", pts[i].Index, pts[i-1].Index)
		}
	}
	again, err := sw.Points()
	if err != nil {
		t.Fatal(err)
	}
	for i := range pts {
		if pts[i].Index != again[i].Index {
			t.Fatalf("sample draw not deterministic: %d vs %d at %d", pts[i].Index, again[i].Index, i)
		}
	}
}

// TestDimensionMismatch checks that an axis incompatible with the base
// fails at expansion with point context, before any trial runs.
func TestDimensionMismatch(t *testing.T) {
	sw := sweep.Sweep{
		Base: traceBase(42), // explicit topology
		Dimensions: []sweep.Dimension{{Name: "median_bw", Values: []sweep.Value{{Label: "8.00Mbit/s", Apply: func(sc *scenario.Scenario) error {
			if sc.Topology.Population == nil {
				return errors.New("median-bandwidth axis needs a generated population topology")
			}
			return nil
		}}}}},
	}
	_, err := sw.Points()
	if err == nil || !strings.Contains(err.Error(), "population") {
		t.Fatalf("expected population-axis error, got %v", err)
	}
	if _, err := (sweep.Engine{}).Run(sw); err == nil {
		t.Fatal("engine accepted a mismatched axis")
	}
}

// TestSweepValidation covers grid-declaration errors.
func TestSweepValidation(t *testing.T) {
	base := traceBase(42)
	cases := []sweep.Sweep{
		{Base: base}, // no dimensions
		{Base: base, Dimensions: []sweep.Dimension{{Name: "", Values: []sweep.Value{{Label: "x", Apply: noop}}}}},                             // unnamed
		{Base: base, Dimensions: []sweep.Dimension{{Name: "d"}}},                                                                              // no values
		{Base: base, Dimensions: []sweep.Dimension{axis(`{"gammas": [1]}`), axis(`{"gammas": [2]}`)}},                                         // duplicate name
		{Base: base, Dimensions: []sweep.Dimension{{Name: "d", Values: []sweep.Value{{Label: "x", Apply: noop}, {Label: "x", Apply: noop}}}}}, // duplicate label
		{Base: base, Dimensions: []sweep.Dimension{{Name: "d", Values: []sweep.Value{{Label: "x"}}}}},                                         // nil mutator
		{Base: base, Dimensions: []sweep.Dimension{axis(`{"gammas": [1]}`)}, Sample: -1},                                                      // negative sample
	}
	for i, sw := range cases {
		if _, err := sw.Points(); err == nil {
			t.Errorf("case %d accepted", i)
		}
		if _, err := sw.Count(); err == nil {
			t.Errorf("case %d counted", i)
		}
	}
}

func noop(*scenario.Scenario) error { return nil }

// circuits is a circuit-count value the spec codec would refuse below 1,
// so a test can reach the engine's own handling of a failing point.
func circuits(n int) sweep.Value {
	return sweep.Value{Label: strconv.Itoa(n), Apply: func(sc *scenario.Scenario) error {
		sc.Circuits.Count = n
		return nil
	}}
}

// axis renders one spec dimension block, such as `{"gammas": [2, 4]}`,
// through the spec package's axis table.
func axis(block string) sweep.Dimension {
	f, err := spec.Parse([]byte(`{"dimensions": [` + block + `]}`))
	if err != nil {
		panic(err)
	}
	sw, err := f.Sweep()
	if err != nil {
		panic(err)
	}
	return sw.Dimensions[0]
}

// TestEngineFailedPoint checks that a point whose scenario fails
// validation aborts the sweep with its coordinates in the error, while
// earlier points still reached the sinks.
func TestEngineFailedPoint(t *testing.T) {
	sw := sweep.Sweep{
		Base:       popBase(scenario.Arm{Name: "circuitstart"}),
		Dimensions: []sweep.Dimension{{Name: "circuits", Values: []sweep.Value{circuits(1), circuits(0)}}}, // 0 circuits is invalid
	}
	tbl, err := sweep.Engine{Workers: 1}.Run(sw)
	if err == nil || !strings.Contains(err.Error(), "point 1") {
		t.Fatalf("expected point-1 failure, got %v", err)
	}
	if len(tbl.Rows) != 1 || tbl.Rows[0].Point != 0 {
		t.Fatalf("table rows = %+v, want the one completed point", tbl.Rows)
	}
}

// TestEnginePanickingMutatorFailsPoint checks that a mutator panic —
// raised on an engine worker goroutine, where nothing else would
// recover it — fails its point with the index and coordinates named,
// while the points before it still reach the sinks.
func TestEnginePanickingMutatorFailsPoint(t *testing.T) {
	sw := sweep.Sweep{
		Base: popBase(scenario.Arm{Name: "circuitstart"}),
		Dimensions: []sweep.Dimension{{Name: "mutator", Values: []sweep.Value{
			{Label: "ok", Apply: noop},
			{Label: "boom", Apply: func(*scenario.Scenario) error { panic("mutator bug") }},
		}}},
	}
	cap := &captureSink{}
	tbl, err := sweep.Engine{Workers: 1}.Run(sw, cap)
	if err == nil || !strings.Contains(err.Error(), "point 1 (boom)") || !strings.Contains(err.Error(), "mutator bug") {
		t.Fatalf("expected point 1 to fail with the panic named, got %v", err)
	}
	if len(cap.results) != 1 || cap.results[0].Point.Index != 0 || len(tbl.Rows) != 1 {
		t.Fatalf("sinks got %d points and %d table rows, want point 0 only", len(cap.results), len(tbl.Rows))
	}
	if _, err := sw.Points(); err == nil || !strings.Contains(err.Error(), "point 1 (boom)") {
		t.Fatalf("Points: expected point 1 to fail with the panic named, got %v", err)
	}
}

// TestSpecGridsWorkerDeterminism runs spec-rendered grids whose points
// are expanded on the engine's worker goroutines — one crossing the
// trace axes that rebuild the topology, one crossing population axes —
// and requires identical CSV at 1 and 4 workers. Under -race it also
// checks that concurrent expansion shares no mutable state.
func TestSpecGridsWorkerDeterminism(t *testing.T) {
	grids := map[string]string{
		"trace": `{"name": "trace-axes", "base": {"kind": "trace", "horizon_sec": 3},
		  "dimensions": [{"gammas": [2, 4]}, {"bandwidths_mbps": [8, 16]}, {"hopcounts": [2, 3]}]}`,
		"population": `{"name": "population-axes",
		  "base": {"kind": "population", "relays": 8, "circuits": 2, "size_bytes": 40000, "horizon_sec": 60},
		  "dimensions": [{"hopcounts": [2, 3]}, {"faults": ["none", "flaky"]},
		    {"size_dists": ["fixed:30000", "lognormal:30000:0.5"]}, {"seeds": [1, 2]}]}`,
	}
	for name, src := range grids {
		f, err := spec.Parse([]byte(src))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		run := func(workers int) string {
			sw, err := f.Sweep()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			var csv bytes.Buffer
			if _, err := (sweep.Engine{Workers: workers}).Run(sw, sweep.NewCSVSink(&csv)); err != nil {
				t.Fatalf("%s at %d workers: %v", name, workers, err)
			}
			return csv.String()
		}
		one, four := run(1), run(4)
		if one != four {
			t.Errorf("%s: CSV differs between 1 and 4 workers:\n--- 1 ---\n%s--- 4 ---\n%s", name, one, four)
		}
		sw, _ := f.Sweep()
		if rows := strings.Count(one, "\n") - 1; rows != sw.Size() {
			t.Errorf("%s: %d CSV rows, want one per point (%d)", name, rows, sw.Size())
		}
	}
}

// TestEngineResume checks that Resume re-runs exactly the grid suffix.
func TestEngineResume(t *testing.T) {
	sw := sweep.Sweep{
		Base:       popBase(scenario.Arm{Name: "circuitstart"}),
		Dimensions: []sweep.Dimension{axis(`{"gammas": [2, 4, 8]}`)},
	}
	full, err := sweep.Engine{Workers: 2}.Run(sw)
	if err != nil {
		t.Fatal(err)
	}
	part, err := sweep.Engine{Workers: 2, Resume: 1}.Run(sw)
	if err != nil {
		t.Fatal(err)
	}
	if len(part.Rows) != len(full.Rows)-1 {
		t.Fatalf("resumed rows = %d, want %d", len(part.Rows), len(full.Rows)-1)
	}
	for i, r := range part.Rows {
		want := full.Rows[i+1]
		if r.Point != want.Point || r.Arm != want.Arm || r.ArmPoint != want.ArmPoint ||
			strings.Join(r.Coords, "|") != strings.Join(want.Coords, "|") {
			t.Fatalf("resumed row %d = %+v, want %+v", i, r, want)
		}
	}
}

// TestCloneIndependence checks the mutation hook the engine relies on:
// mutating a cloned scenario leaves the base untouched.
func TestCloneIndependence(t *testing.T) {
	pop := workload.DefaultRelayParams(8)
	fabric, err := workload.GenerateBackbone(workload.DefaultBackboneParams(8, 2))
	if err != nil {
		t.Fatal(err)
	}
	base := scenario.Scenario{
		Seed:     1,
		Topology: scenario.Topology{Population: &pop, Fabric: &fabric},
		Circuits: scenario.CircuitSet{Count: 2, TransferSize: units.Kilobyte},
		Arms:     []scenario.Arm{{Name: "a"}},
		Horizon:  sim.Second,
		Events:   []scenario.LinkEvent{{At: 1, TrunkA: "core-00", TrunkB: "core-01", Rate: units.Mbps(1)}},
	}
	cl := base.Clone()
	cl.Arms[0].Transport.Gamma = 9
	cl.Topology.Population.N = 99
	cl.Topology.Fabric.Trunks[0].Config.Rate = units.Mbps(1)
	cl.Events[0].Rate = units.Mbps(2)
	if base.Arms[0].Transport.Gamma == 9 {
		t.Error("clone aliases Arms")
	}
	if base.Topology.Population.N == 99 {
		t.Error("clone aliases Population")
	}
	if base.Topology.Fabric.Trunks[0].Config.Rate == units.Mbps(1) {
		t.Error("clone aliases Fabric trunks")
	}
	if base.Events[0].Rate == units.Mbps(2) {
		t.Error("clone aliases Events")
	}
}

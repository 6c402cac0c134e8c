package spec

import (
	"flag"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"

	"circuitstart/internal/core"
	"circuitstart/internal/experiments"
	"circuitstart/internal/faults"
	"circuitstart/internal/netem"
	"circuitstart/internal/relay"
	"circuitstart/internal/scenario"
	"circuitstart/internal/sim"
	"circuitstart/internal/sweep"
	"circuitstart/internal/transport"
	"circuitstart/internal/units"
	"circuitstart/internal/workload"
)

func millis(ms float64) time.Duration  { return time.Duration(ms * float64(time.Millisecond)) }
func secondsD(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// Sweep renders the parsed spec into an executable sweep.Sweep. Call
// only on a File that came out of Parse: rendering assumes normalized
// defaults.
func (f *File) Sweep() (sweep.Sweep, error) {
	base, err := f.Base.scenario(f.Name, *f.Seed)
	if err != nil {
		return sweep.Sweep{}, err
	}
	return f.grid(base)
}

// grid crosses the rendered base scenario with the dimension blocks,
// each rendered through its row of the axis table. The mutators read a
// copy of the base block, so the sweep does not change with f.
func (f *File) grid(base scenario.Scenario) (sweep.Sweep, error) {
	sw := sweep.Sweep{Name: f.Name, Base: base, Sample: f.Sample, SampleSeed: f.SampleSeed}
	b := f.Base
	for i := range f.Dimensions {
		dim, err := b.buildDim(&f.Dimensions[i])
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

// checkSharded refuses, at Parse, a grid with a sharded point a worker
// would refuse. When the base or a shardcounts value shards any point,
// the sharded probe — the base at the largest shard count — is
// validated alone and with each value of every other axis applied on
// its own. Each rule of the sharded engine reads one field, so one value
// at a time covers them all. A grid with no sharded point costs nothing.
func (f *File) checkSharded(base scenario.Scenario, sw sweep.Sweep) error {
	shards, shardDim := base.Shards, -1
	for i, d := range f.Dimensions {
		if len(d.ShardCounts) > 0 {
			shards, shardDim = slices.Max(d.ShardCounts), i
		}
	}
	if shards <= 0 {
		return nil
	}
	probe := base
	probe.Shards = shards
	if shardDim >= 0 { // else Parse has validated the probe as the base
		if err := probe.Validate(); err != nil {
			return fmt.Errorf("spec: dimensions[%d]: shard count %d: %w", shardDim, shards, err)
		}
	}
	for i, dim := range sw.Dimensions {
		if i == shardDim {
			continue
		}
		for _, v := range dim.Values {
			sc := probe.Clone()
			err := v.Apply(&sc)
			if err == nil {
				err = sc.Validate()
			}
			if err != nil {
				return fmt.Errorf("spec: dimensions[%d]: %s %q with shards %d: %w", i, dim.Name, v.Label, shards, err)
			}
		}
	}
	return nil
}

// tracePreset is the trace base's single-circuit preset; the trace
// base renders from it, and so does the trace hops axis.
func (b *Base) tracePreset() experiments.CwndTraceParams {
	p := experiments.DefaultCwndTraceParams(b.Distance)
	p.Hops = b.Hops
	if b.HorizonSec > 0 {
		p.Horizon = sim.Time(secondsD(b.HorizonSec))
	}
	return p
}

// scenario renders the base block.
func (b *Base) scenario(name string, seed int64) (scenario.Scenario, error) {
	cfg, err := b.relayConfig()
	if err != nil {
		return scenario.Scenario{}, err
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
	switch b.Kind {
	case "trace":
		p := b.tracePreset()
		p.Seed = seed
		sc = p.Scenario(arms)
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
				return scenario.Scenario{}, fmt.Errorf("spec: %w", err)
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
				return scenario.Scenario{}, fmt.Errorf("spec: base.size_dist: %w", err)
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
		return scenario.Scenario{}, fmt.Errorf("spec: unknown base.kind %q", b.Kind)
	}

	sc.TrainSize = b.Train
	sc.Shards = b.Shards
	if b.Faults != "" {
		plan, err := faults.Preset(b.Faults, sc.RelayIDs())
		if err != nil {
			return scenario.Scenario{}, fmt.Errorf("spec: base.faults: %w", err)
		}
		sc.Faults = plan
	}
	if len(b.FaultPlan) > 0 {
		plan, err := faults.ParseSpec(b.FaultPlan)
		if err != nil {
			return scenario.Scenario{}, fmt.Errorf("spec: base.fault_plan: %w", err)
		}
		sc.Faults = plan
	}
	return sc, nil
}

// axes is the axis table: one row per spec.Dim field, and the only
// place an axis is declared. Parse renders a dimension block through
// its row, and DimFlags defines and reads the sweep CLI's flags from
// it. The row order is the dimension order of a flag-built grid, which
// fixes that grid's CSV columns and point keys.
var axes = []axisRow{
	axis[string]{
		field: "policies", usage: "dimension: startup policies (comma-separated)",
		list: func(d *Dim) *[]string { return &d.Policies }, name: "policy",
		check: named(func(s string) error { _, err := transport.PolicyByName(s, 0); return err }),
		apply: func(_ *Base, sc *scenario.Scenario, s string) error {
			return eachArm(sc, func(a *scenario.Arm) { a.Transport.Policy = s })
		},
	},
	axis[int]{
		field: "hopcounts", usage: "dimension: relays per circuit (comma-separated)",
		list: func(d *Dim) *[]int { return &d.HopCounts }, name: "hops",
		check: func(b *Base, hs []int) error {
			// A circuit needs a relay, and a sampled path needs as many
			// distinct relays as it has hops.
			if err := belowOne(hs, "hop count %d is below 1"); err != nil {
				return err
			}
			if most := slices.Max(hs); b.Kind == "population" && most > b.Relays {
				return fmt.Errorf("hop count %d exceeds base.relays %d", most, b.Relays)
			}
			return nil
		},
		apply:     func(_ *Base, sc *scenario.Scenario, h int) error { sc.Circuits.Hops = h; return nil },
		traceName: "hops", traceApply: traceHops,
	},
	axis[float64]{
		field: "bandwidths_mbps", usage: "dimension: bottleneck access rate [Mbit/s] (trace) or population median (population)",
		list: func(d *Dim) *[]float64 { return &d.BandwidthsMbps }, name: "median_bw",
		label: func(m float64) string { return units.Mbps(m).String() },
		spell: func(label string) float64 { return float64(spelled(label)) / 1e6 },
		check: func(_ *Base, ms []float64) error { return positive(ms, "bandwidth %v Mbit/s is not positive") },
		apply: func(_ *Base, sc *scenario.Scenario, m float64) error {
			sc.Topology.Population.BandwidthMedian = units.Mbps(m)
			return nil
		},
		traceName: "bottleneck_bw", traceApply: traceBottleneck,
	},
	axis[float64]{
		field: "gammas", usage: "dimension: γ exit thresholds (comma-separated)",
		list: func(d *Dim) *[]float64 { return &d.Gammas }, name: "gamma",
		// γ = 0 would select the default 4 under the label 0.
		check: func(_ *Base, gs []float64) error { return positive(gs, "gamma %v is not positive") },
		apply: func(_ *Base, sc *scenario.Scenario, g float64) error {
			return eachArm(sc, func(a *scenario.Arm) { a.Transport.Gamma = g })
		},
	},
	axis[int64]{
		field: "sizes_bytes", usage: "dimension: transfer sizes [bytes] (comma-separated)",
		list: func(d *Dim) *[]int64 { return &d.SizesBytes }, name: "size",
		label: func(n int64) string { return units.DataSize(n).String() },
		spell: spelled,
		check: func(_ *Base, ns []int64) error { return belowOne(ns, "transfer size %d bytes is below 1") },
		apply: func(_ *Base, sc *scenario.Scenario, n int64) error {
			sc.Circuits.TransferSize = units.DataSize(n)
			return nil
		},
	},
	axis[string]{
		field: "size_dists", usage: "dimension: transfer-size distributions (comma-separated; e.g. lognormal:500000:0.8)",
		list: func(d *Dim) *[]string { return &d.SizeDists }, name: "size_dist",
		label: func(s string) string { d, _ := workload.ParseSizeDist(s); return d.Label() },
		check: named(func(s string) error { _, err := workload.ParseSizeDist(s); return err }),
		apply: func(_ *Base, sc *scenario.Scenario, s string) error {
			d, err := workload.ParseSizeDist(s)
			sc.Circuits.SizeDist, sc.Circuits.SizeMix, sc.Circuits.TransferSize = &d, nil, 0
			return err
		},
	},
	axis[int]{
		field: "counts", usage: "dimension: concurrent circuit counts (comma-separated)",
		list: func(d *Dim) *[]int { return &d.Counts }, name: "circuits",
		check: func(_ *Base, ns []int) error { return belowOne(ns, "circuit count %d is below 1") },
		apply: func(_ *Base, sc *scenario.Scenario, n int) error { sc.Circuits.Count = n; return nil },
	},
	axis[int]{
		field: "trains", usage: "dimension: cell-train coalescing caps (comma-separated; ≤1 = untrained)",
		list: func(d *Dim) *[]int { return &d.Trains }, name: "train",
		check: func(_ *Base, ns []int) error { return negative(ns, "sweep: negative train size %d") },
		apply: func(_ *Base, sc *scenario.Scenario, n int) error { sc.TrainSize = n; return nil },
	},
	axis[int]{
		field: "shardcounts", usage: "dimension: trial shard counts (comma-separated; needs -switches)",
		list: func(d *Dim) *[]int { return &d.ShardCounts }, name: "shards",
		// Every count ≥ 1 runs the same sharded engine, which Parse
		// probes at the largest (checkSharded).
		check: func(_ *Base, ns []int) error { return negative(ns, "sweep: negative shard count %d") },
		apply: func(_ *Base, sc *scenario.Scenario, n int) error { sc.Shards = n; return nil },
	},
	axis[string]{
		field: "faults", usage: "dimension: fault presets (comma-separated)",
		list: func(d *Dim) *[]string { return &d.Faults }, name: "faults",
		check: named(func(s string) error { _, err := faults.Preset(s, nil); return err }),
		// The preset renders against each point's own relays.
		apply: func(_ *Base, sc *scenario.Scenario, s string) (err error) {
			sc.Faults, err = faults.Preset(s, sc.RelayIDs())
			return err
		},
	},
	axis[string]{
		field: "schedulers", usage: "dimension: relay circuit schedulers (comma-separated; fifo, ewma)",
		list: func(d *Dim) *[]string { return &d.Schedulers }, name: "scheduler",
		check: named(func(s string) error { return relay.Config{Scheduler: s}.Validate() }),
		apply: func(_ *Base, sc *scenario.Scenario, s string) error {
			return eachArm(sc, func(a *scenario.Arm) { a.Relay.Scheduler = s })
		},
	},
	axis[int64]{
		field: "seeds", usage: "dimension: independent base seeds (comma-separated)",
		list: func(d *Dim) *[]int64 { return &d.Seeds }, name: "seed",
		apply: func(_ *Base, sc *scenario.Scenario, s int64) error { sc.Seed = s; return nil },
	},
}

// axisRow is a row of the axis table with its element type hidden.
type axisRow interface {
	doc() (field, usage string)
	present(d *Dim) bool
	set(d *Dim, flag string) error
	render(b *Base, d *Dim) (sweep.Dimension, error)
}

// axis is one row of the axis table: a spec.Dim field whose list
// elements have type T.
type axis[T string | int | int64 | float64] struct {
	field string          // the spec.Dim JSON field
	usage string          // the CLI flag's usage text
	list  func(*Dim) *[]T // the field itself
	// label renders a value as its coordinate in rows and point keys
	// (nil: fmt.Sprint). When a label can name more than one value,
	// spell maps it back, and a value it does not spell back is refused:
	// point keys hash labels, so two values sharing one would share
	// each other's cached rows.
	label func(T) string
	spell func(label string) T
	// check refuses, at Parse, a list a worker could not run (nil: any
	// list).
	check func(b *Base, vs []T) error
	name  string // the dimension name
	apply func(b *Base, sc *scenario.Scenario, v T) error
	// traceName and traceApply, when traceApply is set, replace name
	// and apply on the trace base.
	traceName  string
	traceApply func(b *Base, sc *scenario.Scenario, v T) error
}

func (a axis[T]) doc() (string, string) { return a.field, a.usage }

func (a axis[T]) present(d *Dim) bool { return len(*a.list(d)) > 0 }

// set appends the comma-separated elements of a flag value to d's list.
func (a axis[T]) set(d *Dim, flag string) error {
	for _, s := range strings.Split(flag, ",") {
		if s = strings.TrimSpace(s); s == "" {
			continue
		}
		var v T
		var err error
		switch p := any(&v).(type) {
		case *string:
			*p = s
		case *int:
			*p, err = strconv.Atoi(s)
		case *int64:
			*p, err = strconv.ParseInt(s, 10, 64)
		case *float64:
			if *p, err = strconv.ParseFloat(s, 64); err != nil || math.IsNaN(*p) || math.IsInf(*p, 0) {
				return fmt.Errorf("bad value %q (want a finite number)", s)
			}
		}
		if err != nil {
			return fmt.Errorf("bad value %q", s)
		}
		*a.list(d) = append(*a.list(d), v)
	}
	return nil
}

func (a axis[T]) render(b *Base, d *Dim) (sweep.Dimension, error) {
	vs := *a.list(d)
	if a.check != nil {
		if err := a.check(b, vs); err != nil {
			return sweep.Dimension{}, err
		}
	}
	name, apply, label := a.name, a.apply, a.label
	if b.Kind == "trace" && a.traceApply != nil {
		name, apply = a.traceName, a.traceApply
	}
	if label == nil {
		label = func(v T) string { return fmt.Sprint(v) }
	}
	dim := sweep.Dimension{Name: name, Values: make([]sweep.Value, len(vs))}
	for i, v := range vs {
		v := v
		dim.Values[i] = sweep.Value{Label: label(v), Apply: func(sc *scenario.Scenario) error { return apply(b, sc, v) }}
		if a.spell != nil && a.spell(dim.Values[i].Label) != v {
			return sweep.Dimension{}, fmt.Errorf("%s value %v is labelled %q, which names %v",
				a.field, v, dim.Values[i].Label, a.spell(dim.Values[i].Label))
		}
	}
	return dim, nil
}

// buildDim renders one dimension block through the one row it sets.
func (b *Base) buildDim(d *Dim) (sweep.Dimension, error) {
	var row axisRow
	n := 0
	for _, a := range axes {
		if a.present(d) {
			row, n = a, n+1
		}
	}
	if n != 1 {
		return sweep.Dimension{}, fmt.Errorf("needs exactly one axis list, has %d", n)
	}
	return row.render(b, d)
}

// DimFlags defines on fs one flag per sweep axis, named after its
// spec.Dim field with the unit suffix and underscores dropped
// ("bandwidths_mbps" is -bandwidths). It returns the flag names in
// table order and a function that reads the parsed flags into one Dim
// block per flag given, in the same order.
func DimFlags(fs *flag.FlagSet) (names []string, read func() ([]Dim, error)) {
	values := make([]*string, len(axes))
	for i, a := range axes {
		field, usage := a.doc()
		for _, unit := range []string{"_mbps", "_bytes", "_sec", "_ms"} {
			field = strings.TrimSuffix(field, unit)
		}
		names = append(names, strings.ReplaceAll(field, "_", ""))
		values[i] = fs.String(names[i], "", usage)
	}
	return names, func() ([]Dim, error) {
		var dims []Dim
		for i, a := range axes {
			var d Dim
			if err := a.set(&d, *values[i]); err != nil {
				return nil, fmt.Errorf("-%s: %w", names[i], err)
			}
			if a.present(&d) {
				dims = append(dims, d)
			}
		}
		return dims, nil
	}
}

// traceBottleneck sets the trace base's bottleneck access rate. The
// bottleneck sits at the base distance, clamped to the current path
// length, so it keeps targeting the relay traceHops put the bottleneck
// on when a hops axis shortened the circuit below the base distance,
// whichever order the two axes appear in.
func traceBottleneck(b *Base, sc *scenario.Scenario, mbps float64) error {
	bottleneck := netem.NodeID(fmt.Sprintf("relay-%d", min(b.Distance, len(sc.Topology.Relays))))
	for i, r := range sc.Topology.Relays {
		if r.ID == bottleneck {
			sc.Topology.Relays[i].Access.UpRate = units.Mbps(mbps)
			sc.Topology.Relays[i].Access.DownRate = units.Mbps(mbps)
			return nil
		}
	}
	return fmt.Errorf("explicit topology has no relay %q", bottleneck)
}

// traceHops sets the trace base's circuit length by regenerating the
// explicit topology and path. The bottleneck stays at the base
// distance, clamped to the new length, and keeps whatever rate the
// current scenario's bottleneck relay carries, so a bandwidth axis
// composes with this one in either dimension order.
func traceHops(b *Base, sc *scenario.Scenario, h int) error {
	q := b.tracePreset()
	bottleneck := netem.NodeID(fmt.Sprintf("relay-%d", q.BottleneckHop))
	q.Hops, q.BottleneckHop = h, min(q.BottleneckHop, h)
	for _, r := range sc.Topology.Relays {
		if r.ID == bottleneck {
			q.BottleneckRate = r.Access.UpRate
		}
	}
	fresh := q.Scenario(nil)
	sc.Topology, sc.Circuits.Paths = fresh.Topology, fresh.Circuits.Paths
	return nil
}

// spelled returns the amount, in bytes or bit/s, that a units.DataSize
// or units.DataRate label spells: "1.50kB" is 1500, "8.00Mbit/s" is
// 8000000.
func spelled(label string) int64 {
	i := strings.IndexFunc(label, func(r rune) bool { return r != '.' && (r < '0' || r > '9') })
	num, _ := strconv.ParseFloat(label[:i], 64)
	hundredths := int64(math.Round(num * 100))
	switch label[i] {
	case 'k':
		return hundredths * 10
	case 'M':
		return hundredths * 10_000
	case 'G':
		return hundredths * 10_000_000
	}
	return hundredths / 100
}

// belowOne refuses the smallest value when it is below 1.
func belowOne[T int | int64](vs []T, format string) error {
	if least := slices.Min(vs); least < 1 {
		return fmt.Errorf(format, least)
	}
	return nil
}

// positive refuses the smallest value unless it is above 0.
func positive(vs []float64, format string) error {
	if least := slices.Min(vs); !(least > 0) {
		return fmt.Errorf(format, least)
	}
	return nil
}

// eachArm applies set to every arm of sc.
func eachArm(sc *scenario.Scenario, set func(*scenario.Arm)) error {
	for i := range sc.Arms {
		set(&sc.Arms[i])
	}
	return nil
}

// negative refuses the first negative value.
func negative(vs []int, format string) error {
	if i := slices.IndexFunc(vs, func(n int) bool { return n < 0 }); i >= 0 {
		return fmt.Errorf(format, vs[i])
	}
	return nil
}

// named refuses the first name valid rejects.
func named(valid func(string) error) func(*Base, []string) error {
	return func(_ *Base, names []string) error {
		for _, s := range names {
			if err := valid(s); err != nil {
				return fmt.Errorf("sweep: %w", err)
			}
		}
		return nil
	}
}

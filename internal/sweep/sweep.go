// Package sweep is the declarative parameter-sweep engine: a Sweep
// takes a base scenario.Scenario plus a set of named Dimensions — axes
// whose labelled values each mutate the scenario — expands their cross
// product into grid points, executes every point on the parallel
// scenario Runner, and streams per-point aggregates into pluggable
// Sinks (CSV, JSON lines, an in-memory Table with marginal and best-arm
// summaries). The axes a spec or the sweep CLI can name are declared
// in package spec, one table row each.
//
// Every fixed ablation of package experiments is a point query on this
// engine: a 1-D γ sweep over the trace scenario reproduces
// AblationGamma's numbers exactly (TestGammaSweepReproducesAblation
// pins it), and grids the fixed ablations cannot express — γ ×
// bottleneck bandwidth × hop count — are one literal away.
//
// Determinism is inherited from the Runner and extended across the
// grid: every point clones the base scenario (so mutators never alias),
// keeps the base seed (so outcome differences are attributable to the
// dimensions alone, exactly as arms within one scenario share a seed),
// and results are emitted to sinks in grid order regardless of which
// worker finishes first — a sweep's output bytes are identical for any
// worker count, and an interrupted sweep's output is a valid prefix
// that Engine.Resume can continue after.
package sweep

import (
	"fmt"
	"sort"
	"strings"

	"circuitstart/internal/scenario"
	"circuitstart/internal/sim"
)

// Mutator applies one dimension value to a (cloned) scenario. It may
// rewrite anything — transport options, topology, workload, churn — and
// returns an error when the base scenario cannot carry the mutation
// (e.g. a bottleneck-rate axis on a topology without that relay).
type Mutator func(*scenario.Scenario) error

// Value is one point on a dimension's axis: a label (the coordinate
// rendered in output rows) and the mutation realizing it.
type Value struct {
	Label string
	Apply Mutator
}

// Dimension is one named axis of a sweep grid.
type Dimension struct {
	Name   string
	Values []Value
}

// Sweep declares a parameter grid over a base scenario.
type Sweep struct {
	// Name labels the sweep in sink metadata.
	Name string
	// Base is the scenario every grid point starts from. Each point
	// deep-clones it and applies one value per dimension, in dimension
	// order — later dimensions see earlier mutations.
	Base scenario.Scenario
	// Dimensions are the grid axes. The cross product is expanded in
	// row-major order: the last dimension varies fastest.
	Dimensions []Dimension
	// Sample, when positive and smaller than the full grid, caps the
	// sweep to that many points, drawn without replacement from a
	// seed-derived stream and kept in grid order — a cheap way to
	// explore a large surface before committing to the full product.
	Sample int
	// SampleSeed drives the sampling draw (0 = the base scenario seed).
	SampleSeed int64
}

// Point is one expanded grid point: its index in the full grid, its
// coordinates (one value label per dimension) and the mutated scenario.
type Point struct {
	// Index is the point's position in the full row-major grid — stable
	// under sampling and resumption, so output rows from partial sweeps
	// align with the full grid.
	Index int
	// Coords holds one value label per dimension, in dimension order.
	Coords []string
	// Scenario is the base clone with the point's mutations applied.
	Scenario scenario.Scenario
}

// Validate checks the grid declaration (the base scenario itself is
// validated by the Runner when each point executes).
func (s *Sweep) Validate() error {
	if len(s.Dimensions) == 0 {
		return fmt.Errorf("sweep: no dimensions")
	}
	seen := make(map[string]bool, len(s.Dimensions))
	for i, d := range s.Dimensions {
		if d.Name == "" {
			return fmt.Errorf("sweep: dimension %d has no name", i)
		}
		if seen[d.Name] {
			return fmt.Errorf("sweep: duplicate dimension %q", d.Name)
		}
		seen[d.Name] = true
		if len(d.Values) == 0 {
			return fmt.Errorf("sweep: dimension %q has no values", d.Name)
		}
		labels := make(map[string]bool, len(d.Values))
		for j, v := range d.Values {
			if v.Label == "" {
				return fmt.Errorf("sweep: dimension %q value %d has no label", d.Name, j)
			}
			if labels[v.Label] {
				return fmt.Errorf("sweep: dimension %q has duplicate label %q", d.Name, v.Label)
			}
			labels[v.Label] = true
			if v.Apply == nil {
				return fmt.Errorf("sweep: dimension %q value %q has no mutator", d.Name, v.Label)
			}
		}
	}
	if s.Sample < 0 {
		return fmt.Errorf("sweep: negative sample cap")
	}
	return nil
}

// Size returns the full grid size (the product of the dimension
// lengths), before any sampling cap.
func (s *Sweep) Size() int {
	if len(s.Dimensions) == 0 {
		return 0
	}
	n := 1
	for _, d := range s.Dimensions {
		n *= len(d.Values)
	}
	return n
}

// DimensionNames returns the axis names in declaration order.
func (s *Sweep) DimensionNames() []string {
	out := make([]string, len(s.Dimensions))
	for i, d := range s.Dimensions {
		out[i] = d.Name
	}
	return out
}

// indices returns the grid indices the sweep executes, in ascending
// order: the full grid, or a seeded sample of Sample points.
func (s *Sweep) indices() []int {
	size := s.Size()
	idx := make([]int, size)
	for i := range idx {
		idx[i] = i
	}
	if s.Sample == 0 || s.Sample >= size {
		return idx
	}
	seed := s.SampleSeed
	if seed == 0 {
		seed = s.Base.Seed
	}
	rng := sim.NewRNG(seed, "sweep-sample")
	// Partial Fisher–Yates: the first Sample slots are a uniform draw
	// without replacement; sorting restores grid order.
	for i := 0; i < s.Sample; i++ {
		j := i + int(rng.Int63n(int64(size-i)))
		idx[i], idx[j] = idx[j], idx[i]
	}
	idx = idx[:s.Sample]
	sort.Ints(idx)
	return idx
}

// Count validates the grid declaration and returns how many points the
// sweep executes — the full grid, or the Sample cap — without expanding
// any of them.
func (s *Sweep) Count() (int, error) {
	if err := s.Validate(); err != nil {
		return 0, err
	}
	if n := s.Size(); s.Sample == 0 || s.Sample >= n {
		return n, nil
	}
	return s.Sample, nil
}

// coords decodes grid index i into its identity: the Point with one
// value label per dimension (row-major, last dimension fastest) and no
// scenario yet.
func (s *Sweep) coords(i int) Point {
	pt := Point{Index: i, Coords: make([]string, len(s.Dimensions))}
	for d := len(s.Dimensions) - 1; d >= 0; d-- {
		vals := s.Dimensions[d].Values
		pt.Coords[d] = vals[i%len(vals)].Label
		i /= len(vals)
	}
	return pt
}

// expand builds pt's scenario: clone the base and apply the point's
// value of each dimension, in dimension order. A mutator that fails or
// panics fails the point, named by index, coordinates and dimension.
func (s *Sweep) expand(pt *Point) (err error) {
	d := -1 // the dimension being applied; -1 while cloning
	defer func() {
		if p := recover(); p != nil {
			err = s.pointError(pt, d, fmt.Errorf("panicked: %v", p))
		}
	}()
	sc := s.Base.Clone()
	// stride is the number of grid points one step of dimension d spans.
	stride := s.Size()
	for d = 0; d < len(s.Dimensions); d++ {
		vals := s.Dimensions[d].Values
		stride /= len(vals)
		if err := vals[pt.Index/stride%len(vals)].Apply(&sc); err != nil {
			return s.pointError(pt, d, err)
		}
	}
	if s.Name != "" {
		sc.Name = fmt.Sprintf("%s[%s]", s.Name, strings.Join(pt.Coords, " "))
	}
	pt.Scenario = sc
	return nil
}

// pointError attributes an expansion failure to pt's value of
// dimension d, or to the point alone when d < 0.
func (s *Sweep) pointError(pt *Point, d int, err error) error {
	where := fmt.Sprintf("sweep: point %d (%s)", pt.Index, strings.Join(pt.Coords, " "))
	if d >= 0 {
		where += fmt.Sprintf(": dimension %q value %q", s.Dimensions[d].Name, pt.Coords[d])
	}
	return fmt.Errorf("%s: %w", where, err)
}

// point expands grid index i into a full Point: its coordinates and its
// mutated scenario.
func (s *Sweep) point(i int) (Point, error) {
	pt := s.coords(i)
	if err := s.expand(&pt); err != nil {
		return Point{}, err
	}
	return pt, nil
}

// Points expands the sweep into its executable grid points (the full
// cross product, or the seeded sample), in grid order. Engine.Run does
// not call it: the engine expands a point only when it has to run it.
func (s *Sweep) Points() ([]Point, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	idx := s.indices()
	out := make([]Point, len(idx))
	for i, gi := range idx {
		pt, err := s.point(gi)
		if err != nil {
			return nil, err
		}
		out[i] = pt
	}
	return out, nil
}

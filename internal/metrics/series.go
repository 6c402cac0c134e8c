// Package metrics collects and summarizes experiment measurements:
// time-stamped series (e.g. a source's cwnd over virtual time), empirical
// distributions with quantiles and CDFs (e.g. time-to-last-byte over 50
// circuits), and compact summary statistics.
//
// All containers are plain in-memory values with deterministic iteration
// order, so experiment output is reproducible byte-for-byte given a seed.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"time"

	"circuitstart/internal/sim"
)

// Point is one time-stamped sample of a series.
type Point struct {
	At    sim.Time
	Value float64
}

// Series is an append-only time series. The zero value is ready to use.
type Series struct {
	name   string
	points []Point
}

// NewSeries returns an empty series with a diagnostic name.
func NewSeries(name string) *Series { return &Series{name: name} }

// Name returns the series' name.
func (s *Series) Name() string { return s.name }

// Record appends a sample. Samples must be appended in non-decreasing
// time order — the simulator's single-threaded clock guarantees this for
// callers that record as events happen; violating it is a logic error.
func (s *Series) Record(at sim.Time, v float64) {
	if n := len(s.points); n > 0 && at < s.points[n-1].At {
		panic(fmt.Sprintf("metrics: series %q sample at %v before last %v", s.name, at, s.points[n-1].At))
	}
	s.points = append(s.points, Point{At: at, Value: v})
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.points) }

// Points returns the underlying samples. The slice is shared; callers
// must not mutate it.
func (s *Series) Points() []Point { return s.points }

// At returns the series value in effect at time t under step
// (sample-and-hold) interpolation, i.e. the value of the latest sample
// at or before t. ok is false when t precedes the first sample.
// experiments.ExtensionDynamicRestart reads the window at the capacity
// step with it.
func (s *Series) At(t sim.Time) (v float64, ok bool) {
	i := sort.Search(len(s.points), func(i int) bool { return s.points[i].At > t })
	if i == 0 {
		return 0, false
	}
	return s.points[i-1].Value, true
}

// Last returns the most recent sample. ok is false for an empty series.
func (s *Series) Last() (Point, bool) {
	if len(s.points) == 0 {
		return Point{}, false
	}
	return s.points[len(s.points)-1], true
}

// Max returns the largest value observed. ok is false for an empty series.
func (s *Series) Max() (float64, bool) {
	if len(s.points) == 0 {
		return 0, false
	}
	m := math.Inf(-1)
	for _, p := range s.points {
		if p.Value > m {
			m = p.Value
		}
	}
	return m, true
}

// SettleTime returns the earliest time from which the series stays
// within ±tol of target until its end. ok is false if it never settles
// or the series is empty. Test-only, and it stays: the experiments use
// ConvergeTime, and converge_test.go and core_test.go compare against
// this strict form.
func (s *Series) SettleTime(target, tol float64) (sim.Time, bool) {
	if len(s.points) == 0 {
		return 0, false
	}
	settled := sim.Time(-1)
	for _, p := range s.points {
		within := math.Abs(p.Value-target) <= tol
		if within && settled < 0 {
			settled = p.At
		}
		if !within {
			settled = -1
		}
	}
	if settled < 0 {
		return 0, false
	}
	return settled, true
}

// ConvergeTime returns the earliest time from which the series is
// within ±tol of target for at least (1 − outlierFrac) of the remaining
// time, under step interpolation. Unlike SettleTime it tolerates brief
// excursions — a congestion window that periodically re-probes still
// counts as converged. ok is false when no such point exists.
func (s *Series) ConvergeTime(target, tol, outlierFrac float64) (sim.Time, bool) {
	n := len(s.points)
	if n == 0 {
		return 0, false
	}
	end := s.points[n-1].At
	within := func(v float64) bool { return math.Abs(v-target) <= tol }
	// Suffix sums of time spent outside the band, step-interpolated.
	outside := make([]time.Duration, n+1) // outside[i] = time outside from point i to end
	for i := n - 1; i >= 0; i-- {
		segEnd := end
		if i+1 < n {
			segEnd = s.points[i+1].At
		}
		d := segEnd.Sub(s.points[i].At)
		outside[i] = outside[i+1]
		if !within(s.points[i].Value) {
			outside[i] += d
		}
	}
	for i, p := range s.points {
		if !within(p.Value) {
			continue
		}
		total := end.Sub(p.At)
		if total <= 0 {
			// Last sample: converged iff it is in the band.
			return p.At, true
		}
		if float64(outside[i]) <= outlierFrac*float64(total) {
			return p.At, true
		}
	}
	return 0, false
}

// Overshoot returns the maximum amount by which the series exceeds
// target, and when that peak occurred. A non-positive overshoot means
// the series never exceeded the target. Test-only: ROADMAP item 5(a)
// reports peak overshoot against bottleneck distance with it.
func (s *Series) Overshoot(target float64) (amount float64, at sim.Time) {
	amount = math.Inf(-1)
	for _, p := range s.points {
		if over := p.Value - target; over > amount {
			amount, at = over, p.At
		}
	}
	if math.IsInf(amount, -1) {
		return 0, 0
	}
	return amount, at
}

package sweep_test

import (
	"bytes"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"circuitstart/internal/scenario"
	"circuitstart/internal/sweep"
)

// TestEngineLookupMatchesResume pins the generalization the serve
// daemon's cache rests on: replaying completed points through the
// hash-keyed Lookup hook produces byte-identical sink output to a full
// run, and the points it does compute are exactly the ones index-prefix
// Resume would compute.
func TestEngineLookupMatchesResume(t *testing.T) {
	sw := sweep.Sweep{
		Name:       "lookup",
		Base:       popBase(scenario.Arm{Name: "circuitstart"}),
		Dimensions: []sweep.Dimension{sweep.Gamma(2, 4, 8)},
	}

	// Full run: capture every point's rows and the reference CSV bytes.
	var fullCSV bytes.Buffer
	cap := &captureSink{}
	full, err := sweep.Engine{Workers: 2}.Run(sw, cap, sweep.NewCSVSink(&fullCSV))
	if err != nil {
		t.Fatal(err)
	}

	// Pretend the first two points are cached, keyed by their coords —
	// the same identity PointKey hashes, minus the hashing.
	const cachedPrefix = 2
	cache := map[string][]sweep.ArmPoint{}
	for _, pr := range cap.results[:cachedPrefix] {
		cache[strings.Join(pr.Point.Coords, "|")] = pr.Arms
	}
	var computed []int
	var replayCSV bytes.Buffer
	replay, err := sweep.Engine{
		Workers: 2,
		Lookup: func(pt sweep.Point) ([]sweep.ArmPoint, bool) {
			arms, ok := cache[strings.Join(pt.Coords, "|")]
			return arms, ok
		},
	}.Run(sw, sweep.NewCSVSink(&replayCSV), pointIndexSink{computed: &computed})
	if err != nil {
		t.Fatal(err)
	}

	if replayCSV.String() != fullCSV.String() {
		t.Errorf("lookup replay CSV differs from the full run:\n--- replay ---\n%s--- full ---\n%s",
			replayCSV.String(), fullCSV.String())
	}
	if len(replay.Rows) != len(full.Rows) {
		t.Errorf("replay table has %d rows, want %d", len(replay.Rows), len(full.Rows))
	}

	// The computed set must equal what Resume(cachedPrefix) computes.
	resumed, err := sweep.Engine{Workers: 2, Resume: cachedPrefix}.Run(sw)
	if err != nil {
		t.Fatal(err)
	}
	wantComputed := map[int]bool{}
	for _, r := range resumed.Rows {
		wantComputed[r.Point] = true
	}
	if len(computed) != len(wantComputed) {
		t.Fatalf("lookup run computed points %v; index-prefix resume computed %v", computed, wantComputed)
	}
	for _, idx := range computed {
		if !wantComputed[idx] {
			t.Errorf("lookup run computed point %d, which resume skipped", idx)
		}
	}
}

// TestEngineExpandsOnlyPointsThatRun pins lazy expansion: the engine
// clones the base and applies a point's mutators only when the point
// has to run. A Lookup hit is never expanded, a miss is expanded once,
// and without a Lookup every point is expanded once.
func TestEngineExpandsOnlyPointsThatRun(t *testing.T) {
	var applies atomic.Int64
	counted := func(label string) sweep.Value {
		return sweep.Value{Label: label, Apply: func(*scenario.Scenario) error {
			applies.Add(1)
			return nil
		}}
	}
	sw := sweep.Sweep{
		Name:       "lazy",
		Base:       popBase(scenario.Arm{Name: "circuitstart"}),
		Dimensions: []sweep.Dimension{sweep.Gamma(2, 4), sweep.Custom("counted", counted("a"), counted("b"))},
	}
	const points = 4

	var fullCSV bytes.Buffer
	cap := &captureSink{}
	if _, err := (sweep.Engine{Workers: 2}).Run(sw, cap, sweep.NewCSVSink(&fullCSV)); err != nil {
		t.Fatal(err)
	}
	if got := applies.Swap(0); got != points {
		t.Errorf("run without Lookup applied the counted dimension %d times, want once per point (%d)", got, points)
	}

	for _, tc := range []struct {
		name   string
		cached func(index int) bool
		misses int
	}{
		{"every point cached", func(int) bool { return true }, 0},
		{"even points cached", func(i int) bool { return i%2 == 0 }, points / 2},
	} {
		var csv bytes.Buffer
		_, err := sweep.Engine{
			Workers: 2,
			Lookup: func(pt sweep.Point) ([]sweep.ArmPoint, bool) {
				if !tc.cached(pt.Index) {
					return nil, false
				}
				return cap.results[pt.Index].Arms, true
			},
		}.Run(sw, sweep.NewCSVSink(&csv))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := applies.Swap(0); got != int64(tc.misses) {
			t.Errorf("%s: counted dimension applied %d times, want once per miss (%d)", tc.name, got, tc.misses)
		}
		if csv.String() != fullCSV.String() {
			t.Errorf("%s: CSV differs from the full run:\n--- got ---\n%s--- full ---\n%s", tc.name, csv.String(), fullCSV.String())
		}
	}
}

// pointIndexSink records which emitted points carry a full Result —
// i.e. were actually computed rather than replayed from Lookup.
type pointIndexSink struct{ computed *[]int }

func (s pointIndexSink) Begin(sweep.Meta) error { return nil }
func (s pointIndexSink) Point(pr *sweep.PointResult) error {
	if pr.Result != nil {
		*s.computed = append(*s.computed, pr.Point.Index)
	}
	return nil
}
func (s pointIndexSink) Flush() error { return nil }

// TestEngineStop checks the cancellation hook: a sweep whose Stop
// predicate trips returns ErrStopped, and the rows it emitted before
// stopping are a valid grid-order prefix.
func TestEngineStop(t *testing.T) {
	sw := sweep.Sweep{
		Base:       popBase(scenario.Arm{Name: "circuitstart"}),
		Dimensions: []sweep.Dimension{sweep.Gamma(2, 4, 8)},
	}
	_, err := sweep.Engine{Workers: 1, Stop: func() bool { return true }}.Run(sw)
	if !errors.Is(err, sweep.ErrStopped) {
		t.Fatalf("err = %v, want ErrStopped", err)
	}

	// A stop that trips after the first point still emits a prefix.
	full, err := sweep.Engine{Workers: 1}.Run(sw)
	if err != nil {
		t.Fatal(err)
	}
	var n int
	tbl, err := sweep.Engine{Workers: 1, Stop: func() bool { n++; return n > 1 }}.Run(sw)
	if !errors.Is(err, sweep.ErrStopped) {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
	if len(tbl.Rows) >= len(full.Rows) {
		t.Fatalf("stopped run emitted %d rows, full run %d — stop had no effect", len(tbl.Rows), len(full.Rows))
	}
	for i, r := range tbl.Rows {
		want := full.Rows[i]
		if r.Point != want.Point || r.ArmPoint != want.ArmPoint {
			t.Fatalf("stopped run row %d = %+v, want the full run's prefix row %+v", i, r, want)
		}
	}
}

package sweep

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"circuitstart/internal/scenario"
)

// ErrStopped is returned by Engine.Run when the Stop hook cancelled the
// sweep. Points emitted before the stop reached every sink normally, so
// the partial output is a valid grid-order prefix.
var ErrStopped = errors.New("sweep: stopped")

// Engine executes a Sweep: grid points fan out across a worker pool,
// and completed points are emitted to the sinks in grid order — never
// in completion order — so sweep output bytes are identical for any
// Workers value.
//
// A point is its identity, (Index, Coords), until it has to run: a
// worker clones the base and applies the mutators only for a point it
// is about to simulate, never for one Lookup answers. A mutator error
// or panic is therefore reported as that point's failure, exactly like
// a scenario the Runner rejects: Run returns it naming the point's
// index and coordinates, after the grid-order prefix that completed
// before it has reached the sinks.
type Engine struct {
	// Workers is the number of grid points executing concurrently
	// (≤ 0 = runtime.NumCPU()).
	Workers int
	// PointWorkers sizes each point's scenario Runner pool (≤ 0 = 1).
	// The default keeps total parallelism at Workers; raise it for
	// sweeps whose points carry many trials (arms × replications) but
	// few grid points.
	PointWorkers int
	// Resume skips grid points with Index < Resume. Because emission
	// order equals grid order, an interrupted sweep's output is a valid
	// prefix; re-running with Resume set to the first missing index
	// (and appending to the same file) completes it without re-paying
	// the finished points. The prefix is valid per row: the stock
	// sinks hand each row to their writer in one Write, so a killed
	// `circuitsim sweep -out` leaves no half row in the file. A point
	// with several arms can still end short of its last arms; drop
	// that point's rows before resuming at its index.
	Resume int
	// Lookup, when set, is consulted once per grid point before any
	// work is scheduled for it, with the point's Index and Coords only
	// (its Scenario is not built yet). Returning (arms, true) replays
	// the point from those cached per-arm rows instead of running it —
	// the hash-keyed generalization of Resume: any subset of the grid
	// can be served from a prior run, not just an index prefix.
	// Replayed points are never expanded: they reach the sinks with a
	// zero Point.Scenario and PointResult.Result == nil (stock sinks
	// and Table read neither). Lookup may be called from multiple
	// worker goroutines concurrently.
	Lookup func(Point) ([]ArmPoint, bool)
	// Stop, when set, is polled before each point is started. Once it
	// returns true no further points run and Run returns ErrStopped;
	// points already emitted reached every sink in grid order. Stop may
	// be called from multiple worker goroutines concurrently.
	Stop func() bool
}

// Run executes every point of the sweep, streaming each result to
// every sink in grid order. It always aggregates into an in-memory
// Table (returned even when a mid-sweep error cuts the run short, with
// the points that completed before the failure).
func (e Engine) Run(s Sweep, sinks ...Sink) (*Table, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	idx := s.indices()
	idx = idx[sort.SearchInts(idx, e.Resume):]

	tbl := NewTable()
	all := append(append([]Sink{}, sinks...), tbl)
	meta := Meta{Name: s.Name, Dimensions: s.DimensionNames(), GridSize: s.Size(), Points: len(idx)}
	for i, sk := range all {
		if err := sk.Begin(meta); err != nil {
			// Honour the Sink contract for the sinks already begun:
			// they get their Flush even though the sweep never ran.
			for _, begun := range all[:i] {
				begun.Flush()
			}
			return tbl, err
		}
	}

	workers := e.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(idx) {
		workers = len(idx)
	}
	pointWorkers := e.PointWorkers
	if pointWorkers <= 0 {
		pointWorkers = 1
	}

	type slot struct {
		res *PointResult
		err error
	}
	results := make([]slot, len(idx))
	var next, failed, stopped atomic.Int64
	var wg sync.WaitGroup
	done := make(chan int, len(idx))
	// Claim tokens bound how far workers run ahead of the emit cursor:
	// a completed point parks its full Result until every predecessor
	// has been emitted, so without a bound one slow early point would
	// buffer the rest of the grid in memory. 2× workers keeps the pool
	// busy while capping parked results at a constant multiple.
	claims := make(chan struct{}, 2*workers)
	for i := 0; i < cap(claims); i++ {
		claims <- struct{}{}
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				<-claims
				i := int(next.Add(1)) - 1
				if i >= len(idx) {
					claims <- struct{}{}
					return
				}
				if e.Stop != nil && e.Stop() {
					stopped.Store(1)
					failed.Store(1)
				}
				if failed.Load() != 0 {
					// A prior point failed (or the sweep was stopped):
					// report the remaining points as skipped without
					// paying for them.
					done <- i
					continue
				}
				pt := s.coords(idx[i])
				if e.Lookup != nil {
					if arms, ok := e.Lookup(pt); ok {
						results[i] = slot{res: &PointResult{Point: pt, Arms: arms}}
						done <- i
						continue
					}
				}
				res, err := runPoint(&s, pt, pointWorkers)
				results[i] = slot{res: res, err: err}
				if err != nil {
					failed.Store(1)
				}
				done <- i
			}
		}()
	}
	go func() { wg.Wait(); close(done) }()

	// Emit strictly in grid order: results may complete out of order,
	// so each finished index parks in `ready` until every predecessor
	// has been emitted. Sinks run on this goroutine only.
	ready := make(map[int]bool, len(idx))
	emit := 0
	var firstErr error
	for i := range done {
		ready[i] = true
		for ready[emit] {
			sl := results[emit]
			if sl.err != nil && firstErr == nil {
				firstErr = sl.err
			}
			if sl.res != nil && firstErr == nil {
				for _, sk := range all {
					if err := sk.Point(sl.res); err != nil {
						firstErr = fmt.Errorf("sweep: sink: %w", err)
						failed.Store(1)
						break
					}
				}
			}
			results[emit] = slot{}
			delete(ready, emit)
			emit++
			claims <- struct{}{}
		}
	}
	for _, sk := range all {
		if err := sk.Flush(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("sweep: sink: %w", err)
		}
	}
	if firstErr == nil && stopped.Load() != 0 {
		firstErr = ErrStopped
	}
	return tbl, firstErr
}

// runPoint expands pt into its scenario and simulates it on a Runner of
// the given width. It runs on an engine worker goroutine.
func runPoint(s *Sweep, pt Point, workers int) (*PointResult, error) {
	if err := s.expand(&pt); err != nil {
		return nil, err
	}
	res, err := scenario.Runner{Workers: workers}.Run(pt.Scenario)
	if err != nil {
		return nil, fmt.Errorf("sweep: point %d (%v): %w", pt.Index, pt.Coords, err)
	}
	return &PointResult{Point: pt, Arms: armPoints(res), Result: res}, nil
}

// Run executes the sweep with a default Engine (one point per CPU).
func Run(s Sweep, sinks ...Sink) (*Table, error) { return Engine{}.Run(s, sinks...) }

package serve

import (
	"errors"
	"sync"
	"sync/atomic"

	"circuitstart/internal/spec"
	"circuitstart/internal/sweep"
)

// Job states. A job moves queued → running → one of the terminal
// states; DELETE moves a queued job straight to cancelled.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// pointRows is one emitted grid point in wire-ready form: everything a
// rows stream needs to replay it byte-identically, nothing else (the
// full scenario Result is dropped so retained jobs stay bounded).
type pointRows struct {
	index  int
	coords []string
	arms   []sweep.ArmPoint
}

// job is one submitted sweep. The engine goroutine appends rows in
// grid order; any number of rows streams follow them live via the
// notify channel (closed and replaced on every append — a broadcast
// that, unlike sync.Cond, composes with context cancellation).
type job struct {
	id       string
	sw       sweep.Sweep
	baseHash string
	meta     sweep.Meta

	cancel atomic.Bool

	mu       sync.Mutex
	notify   chan struct{}
	state    string
	rows     []pointRows
	cached   int // points served from the cache
	computed int // points actually executed
	tbl      *sweep.Table
	errMsg   string
}

// newJob sizes a queued job for sw, whose points are cached under
// baseHash. It validates the grid and counts its points; it expands
// none of them — the engine builds a point's scenario only if the
// point has to run.
func newJob(sw sweep.Sweep, baseHash string) (*job, error) {
	n, err := sw.Count()
	if err != nil {
		return nil, err
	}
	return &job{
		sw:       sw,
		baseHash: baseHash,
		state:    StateQueued,
		notify:   make(chan struct{}),
		meta: sweep.Meta{
			Name:       sw.Name,
			Dimensions: sw.DimensionNames(),
			GridSize:   sw.Size(),
			Points:     n,
		},
	}, nil
}

func (j *job) broadcastLocked() {
	close(j.notify)
	j.notify = make(chan struct{})
}

// snapshot returns the fields the status endpoint reports.
func (j *job) snapshot() jobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return jobStatus{
		ID:         j.id,
		Name:       j.meta.Name,
		State:      j.state,
		Dimensions: j.meta.Dimensions,
		GridSize:   j.meta.GridSize,
		Points:     j.meta.Points,
		Emitted:    len(j.rows),
		Cached:     j.cached,
		Computed:   j.computed,
		BaseHash:   j.baseHash,
		Error:      j.errMsg,
	}
}

// jobStatus is the wire form of GET /v1/sweeps/{id}.
type jobStatus struct {
	ID         string   `json:"id"`
	Name       string   `json:"name"`
	State      string   `json:"state"`
	Dimensions []string `json:"dimensions"`
	GridSize   int      `json:"grid_size"`
	Points     int      `json:"points"`
	Emitted    int      `json:"emitted"`
	Cached     int      `json:"cached"`
	Computed   int      `json:"computed"`
	BaseHash   string   `json:"base_hash"`
	Error      string   `json:"error,omitempty"`
}

// collector is the engine sink that feeds a job's row log. It runs on
// the engine's emit goroutine, strictly in grid order, and doubles as
// the cache writer: every computed point is inserted under its content
// key as it is emitted (a replayed point is already cached, so it is
// not hashed again).
type collector struct {
	job   *job
	cache *pointCache
}

func (c *collector) Begin(meta sweep.Meta) error { return nil }

func (c *collector) Point(pr *sweep.PointResult) error {
	computed := pr.Result != nil
	if computed && c.cache != nil {
		c.cache.put(spec.PointKey(c.job.baseHash, c.job.meta.Dimensions, pr.Point.Coords), pr.Arms)
	}
	j := c.job
	j.mu.Lock()
	j.rows = append(j.rows, pointRows{index: pr.Point.Index, coords: pr.Point.Coords, arms: pr.Arms})
	if computed {
		j.computed++
	} else {
		j.cached++
	}
	j.broadcastLocked()
	j.mu.Unlock()
	return nil
}

func (c *collector) Flush() error { return nil }

// run executes the job on the sweep engine. Cached points are replayed
// through the engine's Lookup hook — the hash-keyed generalization of
// Resume — so their rows come out byte-identical to the run that
// computed them, and only the grid delta costs simulation time.
func (j *job) run(workers, pointWorkers int, cache *pointCache) {
	j.mu.Lock()
	if j.state != StateQueued {
		j.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.broadcastLocked()
	j.mu.Unlock()

	col := &collector{job: j, cache: cache}
	eng := sweep.Engine{
		Workers:      workers,
		PointWorkers: pointWorkers,
		Stop:         j.cancel.Load,
	}
	if cache != nil {
		eng.Lookup = func(pt sweep.Point) ([]sweep.ArmPoint, bool) {
			return cache.get(spec.PointKey(j.baseHash, j.meta.Dimensions, pt.Coords))
		}
	}
	tbl, err := eng.Run(j.sw, col)

	j.mu.Lock()
	j.tbl = tbl
	switch {
	case errors.Is(err, sweep.ErrStopped):
		j.state = StateCancelled
	case err != nil:
		j.state = StateFailed
		j.errMsg = err.Error()
	default:
		j.state = StateDone
	}
	j.broadcastLocked()
	j.mu.Unlock()
}

// terminal reports whether the state accepts no further rows.
func terminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCancelled
}

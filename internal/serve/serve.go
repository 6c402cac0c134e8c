// Package serve is the sweep service daemon: a long-running HTTP/JSON
// front door over the batch sweep engine. Clients submit the same
// versioned spec files `circuitsim sweep -spec` takes (internal/spec is
// the single codec), the daemon executes them on sweep.Engine worker
// pools, streams per-grid-point rows live in grid order (chunked CSV or
// NDJSON, reusing the batch sinks so streamed bytes are identical to
// batch files), and caches completed grid points under their canonical
// content hash — resubmitting an overlapping grid replays the shared
// points byte-identically and computes only the delta.
//
// Endpoints:
//
//	POST   /v1/sweeps              submit a spec; 202 + job id
//	GET    /v1/sweeps              list jobs
//	GET    /v1/sweeps/{id}         status + progress counters
//	GET    /v1/sweeps/{id}/rows    stream rows (Accept: text/csv |
//	                               application/x-ndjson); follows a
//	                               running sweep to completion
//	GET    /v1/sweeps/{id}/summary table summary (Accept: text/plain
//	                               for the exact CLI block, else JSON)
//	DELETE /v1/sweeps/{id}         cancel a queued or running sweep
//	GET    /v1/healthz             liveness + queue/cache counters and
//	                               the trial arenas kept between jobs
package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"circuitstart/internal/scenario"
	"circuitstart/internal/spec"
	"circuitstart/internal/sweep"
)

// Options configures a Server. The zero value serves with one job at a
// time, a 16-deep queue and a 4096-point cache.
type Options struct {
	// Jobs is the number of sweeps executing concurrently (≤ 0 = 1).
	Jobs int
	// QueueDepth bounds submitted-but-not-started jobs (≤ 0 = 16);
	// submissions beyond it are refused with 503.
	QueueDepth int
	// SweepWorkers is each job's Engine.Workers (≤ 0 = one per CPU).
	SweepWorkers int
	// PointWorkers is each job's Engine.PointWorkers (≤ 0 = 1).
	PointWorkers int
	// CachePoints bounds the completed-point cache (0 = 4096,
	// negative = caching disabled).
	CachePoints int
	// MaxJobs bounds retained jobs; the oldest terminal jobs are
	// evicted past it (≤ 0 = 64).
	MaxJobs int
	// MaxSpecBytes bounds a submitted spec body (≤ 0 = 1 MiB).
	MaxSpecBytes int64
}

func (o Options) withDefaults() Options {
	if o.Jobs <= 0 {
		o.Jobs = 1
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 16
	}
	if o.CachePoints == 0 {
		o.CachePoints = 4096
	}
	if o.MaxJobs <= 0 {
		o.MaxJobs = 64
	}
	if o.MaxSpecBytes <= 0 {
		o.MaxSpecBytes = 1 << 20
	}
	return o
}

// Server is the daemon state: the job registry, the bounded submission
// queue and the content-addressed point cache.
type Server struct {
	opts  Options
	cache *pointCache

	mu    sync.Mutex
	jobs  map[string]*job
	order []string
	seq   int

	queue chan *job
	quit  chan struct{}
	wg    sync.WaitGroup
}

// NewServer starts the job-executor pool and returns the server. Call
// Close to stop accepting work and wait for running jobs to wind down
// (running sweeps are cancelled).
func NewServer(opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts:  opts,
		jobs:  make(map[string]*job),
		queue: make(chan *job, opts.QueueDepth),
		quit:  make(chan struct{}),
	}
	if opts.CachePoints > 0 {
		s.cache = newPointCache(opts.CachePoints)
	}
	for i := 0; i < opts.Jobs; i++ {
		s.wg.Add(1)
		go s.runLoop()
	}
	return s
}

func (s *Server) runLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.quit:
			return
		case j := <-s.queue:
			j.run(s.opts.SweepWorkers, s.opts.PointWorkers, s.cache)
		}
	}
}

// Close stops the executor pool. Queued jobs stay queued (and report
// so); the running jobs are cancelled and awaited.
func (s *Server) Close() {
	close(s.quit)
	s.mu.Lock()
	for _, j := range s.jobs {
		j.cancel.Store(true)
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// readHeaderTimeout bounds how long a client may take to send its
// request headers. Without it a client that never finishes them holds a
// connection and a goroutine forever. Bodies and streamed responses are
// not bounded: a spec upload is small, and a row stream follows a
// running sweep for as long as it runs.
const readHeaderTimeout = 10 * time.Second

// ListenAndServe runs a server on addr until the listener fails. It
// blocks on a real port, so tests drive Server.Handler through
// httptest instead and only the serve-smoke CI job runs it.
func ListenAndServe(addr string, opts Options) error {
	s := NewServer(opts)
	defer s.Close()
	return newHTTPServer(addr, s.Handler()).ListenAndServe()
}

// newHTTPServer configures the daemon's listener-side limits.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: readHeaderTimeout}
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/healthz", s.handleHealthz)
	mux.HandleFunc("/v1/sweeps", s.handleSweeps)
	mux.HandleFunc("/v1/sweeps/", s.handleSweep)
	return mux
}

// httpError writes a JSON error body — spec validation errors arrive
// here verbatim, naming the offending entry.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	s.mu.Lock()
	var queued, running int
	for _, j := range s.jobs {
		j.mu.Lock()
		switch j.state {
		case StateQueued:
			queued++
		case StateRunning:
			running++
		}
		j.mu.Unlock()
	}
	jobs := len(s.jobs)
	s.mu.Unlock()
	// Trial arenas outlive the jobs that ran on them: report the working
	// sets the daemon keeps between jobs.
	ar := scenario.IdleArenas()
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":      true,
		"jobs":    jobs,
		"queued":  queued,
		"running": running,
		"cache":   s.cache.stats(),
		"arenas": map[string]int{
			"idle_pools": ar.IdlePools,
			"cells":      ar.Cells,
			"frames":     ar.Frames,
		},
	})
}

// handleSweeps covers the collection: POST submits, GET lists.
func (s *Server) handleSweeps(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		s.submit(w, r)
	case http.MethodGet:
		s.list(w)
	default:
		httpError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
	}
}

func (s *Server) submit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, s.opts.MaxSpecBytes+1))
	if err != nil {
		httpError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	if int64(len(body)) > s.opts.MaxSpecBytes {
		httpError(w, http.StatusRequestEntityTooLarge, "spec exceeds %d bytes", s.opts.MaxSpecBytes)
		return
	}
	f, err := spec.Parse(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	sw, err := f.Sweep()
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	hash, err := f.BaseHash()
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	j, err := newJob(sw, hash)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if !s.enqueue(j) {
		httpError(w, http.StatusServiceUnavailable, "job queue full (%d queued)", s.opts.QueueDepth)
		return
	}
	writeJSON(w, http.StatusAccepted, j.snapshot())
}

// enqueue registers j under a fresh id and queues it, or reports false
// when the queue is full.
func (s *Server) enqueue(j *job) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	j.id = fmt.Sprintf("sweep-%06d", s.seq)
	select {
	case s.queue <- j:
	default:
		return false
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.evictLocked()
	return true
}

// evictLocked drops the oldest terminal jobs past MaxJobs.
func (s *Server) evictLocked() {
	for len(s.jobs) > s.opts.MaxJobs {
		evicted := false
		for i, id := range s.order {
			j := s.jobs[id]
			j.mu.Lock()
			dead := terminal(j.state)
			j.mu.Unlock()
			if dead {
				delete(s.jobs, id)
				s.order = append(s.order[:i], s.order[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			return // everything live; let the registry run long
		}
	}
}

func (s *Server) list(w http.ResponseWriter) {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	jobs := make([]*job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]jobStatus, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.snapshot())
	}
	writeJSON(w, http.StatusOK, map[string]any{"sweeps": out})
}

// handleSweep covers one job: status, rows, summary, cancel.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/sweeps/")
	id, sub, _ := strings.Cut(rest, "/")
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		httpError(w, http.StatusNotFound, "no sweep %q", id)
		return
	}
	switch {
	case sub == "" && r.Method == http.MethodGet:
		writeJSON(w, http.StatusOK, j.snapshot())
	case sub == "" && r.Method == http.MethodDelete:
		s.cancel(w, j)
	case sub == "rows" && r.Method == http.MethodGet:
		s.rows(w, r, j)
	case sub == "summary" && r.Method == http.MethodGet:
		s.summary(w, r, j)
	case sub == "" || sub == "rows" || sub == "summary":
		httpError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
	default:
		httpError(w, http.StatusNotFound, "no resource %q", sub)
	}
}

func (s *Server) cancel(w http.ResponseWriter, j *job) {
	j.cancel.Store(true)
	// A queued job never reaches its runner's state machine promptly
	// (it may sit behind long sweeps), so cancel it here.
	j.mu.Lock()
	if j.state == StateQueued {
		j.state = StateCancelled
		j.broadcastLocked()
	}
	j.mu.Unlock()
	writeJSON(w, http.StatusAccepted, j.snapshot())
}

// rows streams the job's emitted rows in grid order and follows the
// job live until it reaches a terminal state. The sinks write each row
// in one call straight to the ResponseWriter, which buffers; the
// stream flushes each time it has caught up — after draining every row
// already emitted, before blocking for the next, and once at the end.
// A running job's rows reach the client as they complete, and a
// finished or fully cached job leaves in buffer-sized chunks, not one
// per write. The bytes come from the stock batch sinks, so a streamed
// CSV is byte-identical to `circuitsim sweep -out` for the same spec.
func (s *Server) rows(w http.ResponseWriter, r *http.Request, j *job) {
	ndjson := false
	accept := r.Header.Get("Accept")
	switch {
	case strings.Contains(accept, "application/x-ndjson"), strings.Contains(accept, "application/jsonl"):
		ndjson = true
	case accept == "", strings.Contains(accept, "text/csv"), strings.Contains(accept, "*/*"):
	default:
		httpError(w, http.StatusNotAcceptable, "accept %q (want text/csv or application/x-ndjson)", accept)
		return
	}

	var sink sweep.Sink
	if ndjson {
		w.Header().Set("Content-Type", "application/x-ndjson")
		sink = sweep.NewJSONLSink(w)
	} else {
		w.Header().Set("Content-Type", "text/csv")
		sink = sweep.NewCSVSink(w)
	}
	w.WriteHeader(http.StatusOK)
	if err := sink.Begin(j.meta); err != nil {
		return
	}
	rc := http.NewResponseController(w)

	next := 0
	for {
		j.mu.Lock()
		batch := j.rows[next:]
		next = len(j.rows)
		done := terminal(j.state)
		wait := j.notify
		j.mu.Unlock()

		for i := range batch {
			pr := sweep.PointResult{
				Point: sweep.Point{Index: batch[i].index, Coords: batch[i].coords},
				Arms:  batch[i].arms,
			}
			if err := sink.Point(&pr); err != nil {
				return
			}
		}
		if len(batch) > 0 {
			continue // drain before flushing or blocking
		}
		// A client that has gone away fails the next write or cancels
		// the request context, so a flush error needs no handling here.
		_ = rc.Flush()
		if done {
			sink.Flush()
			return
		}
		select {
		case <-wait:
		case <-r.Context().Done():
			return
		}
	}
}

// summary renders the finished sweep's table. text/plain returns the
// exact block `circuitsim sweep` prints (Table.WriteSummary), so a
// remote CLI run is byte-identical to a local one; the default is a
// JSON view of best arms and marginals.
func (s *Server) summary(w http.ResponseWriter, r *http.Request, j *job) {
	j.mu.Lock()
	state := j.state
	tbl := j.tbl
	errMsg := j.errMsg
	j.mu.Unlock()
	if !terminal(state) {
		httpError(w, http.StatusConflict, "sweep is %s; the summary is available once it completes", state)
		return
	}
	if tbl == nil {
		httpError(w, http.StatusNotFound, "sweep %s produced no table (%s)", j.id, errMsg)
		return
	}
	if strings.Contains(r.Header.Get("Accept"), "text/plain") {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		tbl.WriteSummary(w)
		return
	}
	type marginal struct {
		Dimension string              `json:"dimension"`
		Rows      []sweep.MarginalRow `json:"rows"`
	}
	marginals := make([]marginal, 0, len(tbl.Meta.Dimensions))
	for _, dim := range tbl.Meta.Dimensions {
		rows, err := tbl.Marginal(dim)
		if err != nil {
			httpError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		marginals = append(marginals, marginal{Dimension: dim, Rows: rows})
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"id":        j.id,
		"state":     state,
		"name":      tbl.Meta.Name,
		"best":      tbl.BestArms(),
		"marginals": marginals,
		"error":     errMsg,
	})
}

package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"circuitstart/internal/endpoint"
	"circuitstart/internal/scenario"
	"circuitstart/internal/serve"
	"circuitstart/internal/spec"
	"circuitstart/internal/sweep"
)

// workloadDef names one workload and how to set it up. The reason each
// was chosen is recorded once, in BENCHMARK.json and the README.
type workloadDef struct {
	name  string
	setup func(seed int64, z sizes) (instance, error)
}

var workloads = []workloadDef{
	{"fig1_cdf", func(seed int64, z sizes) (instance, error) { return newTrial(fig1Scenario(seed, z), nil) }},
	{"bulk_trains", func(seed int64, z sizes) (instance, error) { return newTrial(bulkScenario(seed, z), nil) }},
	{"churn_faults", func(seed int64, z sizes) (instance, error) {
		return newTrial(churnScenario(seed, z.churnInitial, z.churnArrivals))
	}},
	{"scale_sharded", func(seed int64, z sizes) (instance, error) {
		shards := runtime.NumCPU()
		if shards < 2 {
			shards = 2 // one shard would skip the barrier and handoff code
		}
		return newTrial(scaleScenario(seed, z.scaleRelays, z.scaleSwitches, z.scaleInitial, z.scaleArrivals, shards))
	}},
	{"sweep_grid", newSweepGrid},
	{"serve_cold", newServeCold},
	{"serve_replay", newServeReplay},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// instance is a workload after set-up: its inputs are generated, its
// warm-up repetition has run and, for the daemon workloads, its server
// is listening.
type instance interface {
	// rep runs one repetition and reports what it measured.
	rep(tr *tracer) (repResult, error)
	// reference is the warm-up repetition's output; its digest is the
	// workload's output_sha256. Every repetition that returns an output
	// must reproduce it byte for byte.
	reference() []byte
	// verify runs the checks that need a second, independent
	// computation. It runs once, after the timed section.
	verify() (attempted, failed int, err error)
	close()
}

// repResult is one repetition as the caller saw it.
type repResult struct {
	wall     time.Duration // the timed calls only, not the rendering
	firstRow time.Duration // until the first result was in the caller's hands
	work     float64       // payload cells (trials) or grid points delivered
	ops      int           // downloads, grid points or HTTP requests attempted
	failed   int           // of those, how many failed
	output   []byte        // nil when repetitions differ by design
}

// ---- workloads 1–4: one scenario.Runner.Run over all arms ----

type trial struct {
	sc  scenario.Scenario
	ref []byte
}

// newTrial runs the warm-up repetition and keeps its rendering as the
// reference. It takes the generator's error so call sites stay one line.
func newTrial(sc scenario.Scenario, err error) (instance, error) {
	if err != nil {
		return nil, err
	}
	t := &trial{sc: sc}
	r, err := t.rep(nil)
	if err != nil {
		return nil, err
	}
	t.ref = r.output
	return t, nil
}

func (t *trial) rep(tr *tracer) (repResult, error) {
	done := tr.span("scenario.Runner.Run")
	start := time.Now()
	res, err := scenario.Runner{Workers: 1}.Run(t.sc)
	wall := time.Since(start)
	done()
	if err != nil {
		return repResult{}, err
	}
	defer tr.span("render")()
	out, cells, ops, failed := renderResult(res)
	// A batch trial hands over nothing before it ends.
	return repResult{wall: wall, firstRow: wall, work: float64(cells), ops: ops, failed: failed, output: out}, nil
}

func (t *trial) reference() []byte { return t.ref }

// verify re-runs a sharded trial on one shard: the sharded engine's
// contract is byte-identical results at any positive shard count.
func (t *trial) verify() (int, int, error) {
	if t.sc.Shards <= 1 {
		return 0, 0, nil
	}
	one := t.sc
	one.Shards = 1
	res, err := scenario.Runner{Workers: 1}.Run(one)
	if err != nil {
		return 1, 1, err
	}
	out, _, _, _ := renderResult(res)
	if !bytes.Equal(out, t.ref) {
		return 1, 1, fmt.Errorf("%d-shard output differs from the 1-shard output", t.sc.Shards)
	}
	return 1, 0, nil
}

func (t *trial) close() {}

// renderResult renders the summary tables plus one line per download,
// so two runs with equal bytes simulated the same thing. It also counts
// the payload cells of completed downloads and the downloads that did
// not complete.
func renderResult(res *scenario.Result) (out []byte, cells, ops, failed int) {
	var buf bytes.Buffer
	res.WriteText(&buf)
	size := res.Scenario.Circuits.TransferSize
	for i := range res.Arms {
		a := &res.Arms[i]
		for _, o := range a.Circuits {
			ops++
			if o.Done {
				cells += endpoint.CellsFor(size)
			} else {
				failed++
			}
			fmt.Fprintf(&buf, "%s %d %d %d %t %d %g\n", a.Name, o.Replication, o.Index, int64(o.TTLB), o.Done, o.Rebuilds, o.ExitCwnd)
		}
	}
	return buf.Bytes(), cells, ops, failed
}

// ---- workload 5: spec bytes to flushed sinks ----

type sweepGrid struct {
	spec []byte
	ref  []byte
}

func newSweepGrid(seed int64, z sizes) (instance, error) {
	g := &sweepGrid{spec: sweepSpec(seed, z)}
	r, err := g.rep(nil)
	if err != nil {
		return nil, err
	}
	g.ref = r.output
	return g, nil
}

func (g *sweepGrid) rep(tr *tracer) (repResult, error) {
	start := time.Now()
	out, _, points, err := runGrid(g.spec, runtime.NumCPU(), tr, start)
	wall := time.Since(start)
	if err != nil {
		return repResult{}, err
	}
	// Engine.Run returns its table when the grid is done; the row that
	// reaches a sink earlier is priced by sweep.first_row_ms.
	return repResult{wall: wall, firstRow: wall, work: float64(points), ops: points, output: out}, nil
}

func (g *sweepGrid) reference() []byte { return g.ref }

// verify re-runs the grid on one worker: output bytes must not depend
// on the worker count.
func (g *sweepGrid) verify() (int, int, error) {
	out, _, _, err := runGrid(g.spec, 1, nil, time.Now())
	if err != nil {
		return 1, 1, err
	}
	if !bytes.Equal(out, g.ref) {
		return 1, 1, fmt.Errorf("sweep output at %d workers differs from the one-worker output", runtime.NumCPU())
	}
	return 1, 0, nil
}

func (g *sweepGrid) close() {}

// runGrid is the batch front door: parse, render, run on the engine
// with a CSV and a JSONL sink into memory. It returns both files
// concatenated, when the first row reached the CSV sink, and the
// number of grid points emitted.
func runGrid(specJSON []byte, workers int, tr *tracer, start time.Time) (out []byte, first time.Duration, points int, err error) {
	sw, err := renderSpec(specJSON, tr)
	if err != nil {
		return nil, 0, 0, err
	}
	var csv, jsonl bytes.Buffer
	csvSink := &timedSink{Sink: sweep.NewCSVSink(&csv), name: "sweep.CSVSink.Point", tr: tr, start: start}
	jsonlSink := &timedSink{Sink: sweep.NewJSONLSink(&jsonl), name: "sweep.JSONLSink.Point", tr: tr, start: start}
	done := tr.span("sweep.Engine.Run")
	_, err = sweep.Engine{Workers: workers}.Run(sw, csvSink, jsonlSink)
	done()
	if err != nil {
		return nil, 0, 0, err
	}
	return append(csv.Bytes(), jsonl.Bytes()...), csvSink.first, csvSink.points, nil
}

// renderSpec parses spec bytes and renders them into a runnable sweep,
// the two steps every front door performs on a submission.
func renderSpec(specJSON []byte, tr *tracer) (sweep.Sweep, error) {
	done := tr.span("spec.Parse")
	f, err := spec.Parse(specJSON)
	done()
	if err != nil {
		return sweep.Sweep{}, err
	}
	defer tr.span("spec.File.Sweep")()
	return f.Sweep()
}

// timedSink notes when its first row was written and, in a traced run,
// records a span per Point call so the engine's self time excludes
// sink encoding.
type timedSink struct {
	sweep.Sink
	name   string
	tr     *tracer
	start  time.Time
	first  time.Duration
	points int
}

func (s *timedSink) Point(pr *sweep.PointResult) error {
	done := s.tr.span(s.name)
	err := s.Sink.Point(pr)
	done()
	if s.points == 0 {
		s.first = time.Since(s.start)
	}
	s.points++
	return err
}

// ---- workloads 6–7: the daemon behind a loopback listener ----

// daemon is a serve.Server with defaults behind an httptest loopback
// listener, with the HTTP client the closed-loop callers share.
type daemon struct {
	srv *serve.Server
	ts  *httptest.Server
}

func startDaemon() *daemon {
	srv := serve.NewServer(serve.Options{})
	return &daemon{srv: srv, ts: httptest.NewServer(srv.Handler())}
}

func (d *daemon) close() {
	d.ts.Close()
	d.srv.Close()
}

// submission is one POST + GET /rows exchange as the client timed it.
type submission struct {
	id       string
	submit   time.Duration // POST issued → 202 decoded
	firstRow time.Duration // POST issued → first data row read
	total    time.Duration // POST issued → EOF of the row stream
	body     []byte
	rows     int // data rows, header excluded
}

// submit posts a spec and follows its CSV row stream to EOF. Any HTTP
// or protocol error fails the submission.
func (d *daemon) submit(specJSON []byte, tr *tracer) (submission, error) {
	defer tr.span("serve.submission")()
	var s submission
	client := d.ts.Client()
	start := time.Now()

	done := tr.span("serve.POST /v1/sweeps")
	resp, err := client.Post(d.ts.URL+"/v1/sweeps", "application/json", bytes.NewReader(specJSON))
	if err != nil {
		done()
		return s, err
	}
	var accepted struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&accepted)
	resp.Body.Close()
	done()
	s.submit = time.Since(start)
	if err != nil || resp.StatusCode != http.StatusAccepted || accepted.ID == "" {
		return s, fmt.Errorf("POST /v1/sweeps: status %d, id %q, err %v", resp.StatusCode, accepted.ID, err)
	}

	s.id = accepted.ID

	defer tr.span("serve.GET rows")()
	req, err := http.NewRequest(http.MethodGet, d.ts.URL+"/v1/sweeps/"+accepted.ID+"/rows", nil)
	if err != nil {
		return s, err
	}
	req.Header.Set("Accept", "text/csv")
	resp, err = client.Do(req)
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("GET rows: status %d", resp.StatusCode)
	}
	var body bytes.Buffer
	br := bufio.NewReader(resp.Body)
	firstDone := tr.span("serve.first row")
	for line := 0; ; line++ {
		b, err := br.ReadBytes('\n')
		if len(b) > 0 {
			body.Write(b)
			if line == 1 { // line 0 is the CSV header
				s.firstRow = time.Since(start)
				firstDone()
			}
			if line >= 1 {
				s.rows++
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return s, err
		}
	}
	s.total = time.Since(start)
	s.body = body.Bytes()
	if s.rows == 0 {
		firstDone()
		return s, fmt.Errorf("GET rows: stream ended before the first data row")
	}
	return s, nil
}

// get fetches a small JSON endpoint and returns its body.
func (d *daemon) get(path string) ([]byte, error) {
	resp, err := d.ts.Client().Get(d.ts.URL + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// serveCold submits a small grid under a fresh seed each time, so the
// daemon simulates every point.
type serveCold struct {
	d      *daemon
	seed   int64
	z      sizes
	points int
	next   int
	bodies [][]byte // body of submission i, for verify
}

func newServeCold(seed int64, z sizes) (instance, error) {
	c := &serveCold{d: startDaemon(), seed: seed, z: z, points: pointsIn(len(z.coldGammas), len(z.coldBandwidths))}
	// Three warm-up submissions: one is so short that set-up time would
	// be mostly listener start-up jitter.
	for i := 0; i < 3; i++ {
		if _, err := c.rep(nil); err != nil {
			c.close()
			return nil, err
		}
	}
	return c, nil
}

func (c *serveCold) rep(tr *tracer) (repResult, error) {
	s, err := c.d.submit(coldSpec(c.seed, c.z, c.next), tr)
	c.next++
	c.bodies = append(c.bodies, s.body)
	if err != nil {
		return repResult{}, err
	}
	r := repResult{wall: s.total, firstRow: s.firstRow, work: float64(c.points), ops: 2}
	if s.rows != c.points {
		r.failed++
	}
	return r, nil
}

// reference is the warm-up submission's body. Later submissions have
// their own seeds, so rep returns no output to compare with it.
func (c *serveCold) reference() []byte { return c.bodies[0] }

// verify recomputes the first, middle and last submission on the batch
// engine: a streamed CSV must equal the batch CSV for the same spec.
func (c *serveCold) verify() (attempted, failed int, err error) {
	last := len(c.bodies) - 1
	for _, i := range []int{0, last / 2, last} {
		attempted++
		out, gerr := runGridCSV(coldSpec(c.seed, c.z, i))
		if gerr != nil || !bytes.Equal(out, c.bodies[i]) {
			failed++
			err = fmt.Errorf("submission %d: streamed CSV differs from the batch CSV (batch error: %v)", i, gerr)
		}
	}
	return attempted, failed, err
}

func (c *serveCold) close() { c.d.close() }

// runGridCSV is the batch engine with only the CSV sink, the file
// `circuitsim sweep -out` writes.
func runGridCSV(specJSON []byte) ([]byte, error) {
	sw, err := renderSpec(specJSON, nil)
	if err != nil {
		return nil, err
	}
	var csv bytes.Buffer
	_, err = sweep.Engine{}.Run(sw, sweep.NewCSVSink(&csv))
	return csv.Bytes(), err
}

// serveReplay resubmits one grid the daemon has already computed:
// every point comes back from the content-hash cache. One repetition is
// one resubmission from each of NumCPU closed-loop clients at once,
// timed until the last stream ends. A lone client leaves the other CPU
// idle, and its latency is then mostly the host waking that CPU for
// every row hand-off: on this 2-vCPU host 9–15 ms from run to run,
// against 3 ms per replay with both CPUs kept busy.
type serveReplay struct {
	d       *daemon
	spec    []byte
	points  int
	clients int
	ref     []byte
}

func newServeReplay(seed int64, z sizes) (instance, error) {
	r := &serveReplay{
		d:       startDaemon(),
		spec:    sweepSpec(seed, z),
		points:  pointsIn(len(z.gridGammas), len(z.gridBandwidths), len(z.gridHops)),
		clients: runtime.NumCPU(),
	}
	s, err := r.d.submit(r.spec, nil)
	if err != nil {
		r.close()
		return nil, err
	}
	r.ref = s.body
	return r, nil
}

func (r *serveReplay) rep(tr *tracer) (repResult, error) {
	subs := make([]submission, r.clients)
	errs := make([]error, r.clients)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range subs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Spans nest by one stack, so only the first client records them.
			clientTracer := tr
			if i > 0 {
				clientTracer = nil
			}
			subs[i], errs[i] = r.d.submit(r.spec, clientTracer)
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)
	// The first client's body is the repetition's output, which the run
	// loop compares with the reference; the others are compared here.
	res := repResult{wall: wall, firstRow: subs[0].firstRow, work: float64(r.clients * r.points), ops: 2 * r.clients, output: subs[0].body}
	for i := range subs {
		if errs[i] != nil {
			return repResult{}, errs[i]
		}
		if i > 0 && !bytes.Equal(subs[i].body, r.ref) {
			res.failed++
		}
	}
	return res, nil
}

func (r *serveReplay) reference() []byte { return r.ref }

// verify checks the cache did the work: the daemon must report no more
// misses than the one grid computed in set-up.
func (r *serveReplay) verify() (int, int, error) {
	hits, misses, err := r.d.cacheCounters()
	if err != nil {
		return 1, 1, err
	}
	if misses != int64(r.points) || hits == 0 {
		return 1, 1, fmt.Errorf("cache reports %d hits, %d misses; want misses = %d grid points", hits, misses, r.points)
	}
	return 1, 0, nil
}

func (r *serveReplay) close() { r.d.close() }

// cacheCounters reads the point cache's counters from /v1/healthz.
func (d *daemon) cacheCounters() (hits, misses int64, err error) {
	body, err := d.get("/v1/healthz")
	if err != nil {
		return 0, 0, err
	}
	var h struct {
		Cache struct {
			Hits   int64 `json:"hits"`
			Misses int64 `json:"misses"`
		} `json:"cache"`
	}
	if err := json.Unmarshal(body, &h); err != nil {
		return 0, 0, err
	}
	return h.Cache.Hits, h.Cache.Misses, nil
}

package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"circuitstart/internal/scenario"
	"circuitstart/internal/spec"
	"circuitstart/internal/sweep"
)

// smokeSpec is a tiny trace-base grid: two single-circuit trace points,
// cheap enough that every test can execute it for real.
const smokeSpec = `{
  "name": "smoke",
  "base": {"kind": "trace"},
  "dimensions": [{"gammas": [2, 4]}]
}`

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// submit posts a spec and returns the job status.
func submit(t *testing.T, ts *httptest.Server, specJSON string) jobStatus {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s: %s", resp.Status, body)
	}
	var st jobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("submit response: %v\n%s", err, body)
	}
	return st
}

// getStatus fetches a job's status.
func getStatus(t *testing.T, ts *httptest.Server, id string) jobStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st jobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitState polls until the predicate holds, with a deadline.
func waitState(t *testing.T, ts *httptest.Server, id string, pred func(jobStatus) bool) jobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		st := getStatus(t, ts, id)
		if pred(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting on sweep %s (state %s, emitted %d)", id, st.State, st.Emitted)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// fetch GETs a path with an Accept header and returns status + body.
func fetch(t *testing.T, ts *httptest.Server, path, accept string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// batchBytes runs the spec through the batch engine in-process and
// returns the CSV bytes, JSONL bytes, and summary text the CLI would
// produce — the reference for every byte-identity assertion.
func batchBytes(t *testing.T, specJSON string) (csv, jsonl, summary []byte) {
	t.Helper()
	f, err := spec.Parse([]byte(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	sw, err := f.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	var csvBuf, jsonlBuf, sumBuf bytes.Buffer
	tbl, err := sweep.Engine{}.Run(sw, sweep.NewCSVSink(&csvBuf), sweep.NewJSONLSink(&jsonlBuf))
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.WriteSummary(&sumBuf); err != nil {
		t.Fatal(err)
	}
	return csvBuf.Bytes(), jsonlBuf.Bytes(), sumBuf.Bytes()
}

// TestSubmitStreamSummary is the end-to-end happy path: submit a spec,
// stream the rows live (the request lands while the sweep runs), and
// check CSV, NDJSON and the text summary are byte-identical to what
// the batch CLI path produces for the same spec.
func TestSubmitStreamSummary(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	wantCSV, wantJSONL, wantSummary := batchBytes(t, smokeSpec)

	st := submit(t, ts, smokeSpec)
	if st.State != StateQueued && st.State != StateRunning {
		t.Fatalf("fresh job state = %s", st.State)
	}
	if st.Points != 2 || st.GridSize != 2 {
		t.Fatalf("job sized %d/%d, want 2/2", st.Points, st.GridSize)
	}

	// Stream immediately — this exercises the live follow loop.
	code, gotCSV := fetch(t, ts, "/v1/sweeps/"+st.ID+"/rows", "text/csv")
	if code != http.StatusOK {
		t.Fatalf("rows: %d: %s", code, gotCSV)
	}
	if !bytes.Equal(gotCSV, wantCSV) {
		t.Errorf("streamed CSV differs from batch:\n--- daemon ---\n%s--- batch ---\n%s", gotCSV, wantCSV)
	}

	final := waitState(t, ts, st.ID, func(s jobStatus) bool { return terminal(s.State) })
	if final.State != StateDone || final.Emitted != 2 || final.Computed != 2 || final.Cached != 0 {
		t.Fatalf("final status %+v", final)
	}

	code, gotJSONL := fetch(t, ts, "/v1/sweeps/"+st.ID+"/rows", "application/x-ndjson")
	if code != http.StatusOK {
		t.Fatalf("ndjson rows: %d", code)
	}
	if !bytes.Equal(gotJSONL, wantJSONL) {
		t.Errorf("streamed NDJSON differs from batch:\n--- daemon ---\n%s--- batch ---\n%s", gotJSONL, wantJSONL)
	}

	code, gotSummary := fetch(t, ts, "/v1/sweeps/"+st.ID+"/summary", "text/plain")
	if code != http.StatusOK {
		t.Fatalf("summary: %d: %s", code, gotSummary)
	}
	if !bytes.Equal(gotSummary, wantSummary) {
		t.Errorf("text summary differs from the CLI block:\n--- daemon ---\n%s--- batch ---\n%s", gotSummary, wantSummary)
	}

	code, jsonSummary := fetch(t, ts, "/v1/sweeps/"+st.ID+"/summary", "")
	if code != http.StatusOK {
		t.Fatalf("json summary: %d", code)
	}
	var sum struct {
		Best      json.RawMessage `json:"best"`
		Marginals []struct {
			Dimension string `json:"dimension"`
		} `json:"marginals"`
	}
	if err := json.Unmarshal(jsonSummary, &sum); err != nil {
		t.Fatalf("json summary: %v\n%s", err, jsonSummary)
	}
	if len(sum.Marginals) != 1 || sum.Marginals[0].Dimension != "gamma" {
		t.Errorf("json summary marginals = %s", jsonSummary)
	}
}

// flushCounter is a ResponseWriter that counts flushes.
type flushCounter struct {
	*httptest.ResponseRecorder
	flushes int
}

func (f *flushCounter) Flush() {
	f.flushes++
	f.ResponseRecorder.Flush()
}

// TestFinishedJobStreamsInFewFlushes pins the flush-when-caught-up
// rule: a finished job's rows are all available at once, so the stream
// flushes when it has drained them and at the end — not once per write.
func TestFinishedJobStreamsInFewFlushes(t *testing.T) {
	srv, ts := newTestServer(t, Options{})
	wantCSV, wantJSONL, _ := batchBytes(t, smokeSpec)
	st := submit(t, ts, smokeSpec)
	waitState(t, ts, st.ID, func(s jobStatus) bool { return s.State == StateDone })

	for _, tc := range []struct {
		accept string
		want   []byte
	}{{"text/csv", wantCSV}, {"application/x-ndjson", wantJSONL}} {
		req := httptest.NewRequest(http.MethodGet, "/v1/sweeps/"+st.ID+"/rows", nil)
		req.Header.Set("Accept", tc.accept)
		rec := &flushCounter{ResponseRecorder: httptest.NewRecorder()}
		srv.Handler().ServeHTTP(rec, req)
		if rec.flushes > 2 {
			t.Errorf("%s: finished job streamed in %d flushes, want ≤ 2", tc.accept, rec.flushes)
		}
		if !bytes.Equal(rec.Body.Bytes(), tc.want) {
			t.Errorf("%s: streamed rows differ from batch:\n--- daemon ---\n%s--- batch ---\n%s", tc.accept, rec.Body.Bytes(), tc.want)
		}
	}
}

// TestLiveFollowStreamsBeforeDone checks that coalescing flushes does
// not hold a running job's rows back: the client reads the first data
// row while the sweep still reports running.
func TestLiveFollowStreamsBeforeDone(t *testing.T) {
	_, ts := newTestServer(t, Options{Jobs: 1, CachePoints: -1})
	st := submit(t, ts, slowSpec)

	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/sweeps/"+st.ID+"/rows", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/csv")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	for _, what := range []string{"header", "first data row"} {
		if _, err := br.ReadString('\n'); err != nil {
			t.Fatalf("reading the %s: %v", what, err)
		}
	}
	if got := getStatus(t, ts, st.ID); got.State != StateRunning {
		t.Errorf("first row reached the client with the sweep %s (%d of %d emitted), want %s",
			got.State, got.Emitted, got.Points, StateRunning)
	}

	req, err = http.NewRequest(http.MethodDelete, ts.URL+"/v1/sweeps/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	del, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, del.Body)
	del.Body.Close()
	waitState(t, ts, st.ID, func(s jobStatus) bool { return terminal(s.State) })
}

// TestCacheReplayAndOverlapDelta pins the tentpole cache contract:
// resubmitting the same grid replays every point from the cache with
// byte-identical rows, and a superset grid computes only the delta.
func TestCacheReplayAndOverlapDelta(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	first := submit(t, ts, smokeSpec)
	waitState(t, ts, first.ID, func(s jobStatus) bool { return s.State == StateDone })
	_, firstCSV := fetch(t, ts, "/v1/sweeps/"+first.ID+"/rows", "text/csv")

	// Same grid again: zero points computed, identical bytes.
	second := submit(t, ts, smokeSpec)
	fin := waitState(t, ts, second.ID, func(s jobStatus) bool { return s.State == StateDone })
	if fin.Cached != 2 || fin.Computed != 0 {
		t.Fatalf("resubmission cached/computed = %d/%d, want 2/0", fin.Cached, fin.Computed)
	}
	_, secondCSV := fetch(t, ts, "/v1/sweeps/"+second.ID+"/rows", "text/csv")
	if !bytes.Equal(firstCSV, secondCSV) {
		t.Errorf("cache replay is not byte-identical:\n--- first ---\n%s--- second ---\n%s", firstCSV, secondCSV)
	}
	if first.BaseHash == "" || first.BaseHash != fin.BaseHash {
		t.Errorf("base hashes differ across identical submissions: %q vs %q", first.BaseHash, fin.BaseHash)
	}

	// A superset grid — different submission name, one new coordinate —
	// replays the overlap and computes exactly the delta.
	superset := `{
	  "name": "smoke-superset",
	  "base": {"kind": "trace"},
	  "dimensions": [{"gammas": [2, 4, 8]}]
	}`
	third := submit(t, ts, superset)
	fin3 := waitState(t, ts, third.ID, func(s jobStatus) bool { return s.State == StateDone })
	if fin3.Cached != 2 || fin3.Computed != 1 {
		t.Fatalf("superset cached/computed = %d/%d, want 2/1", fin3.Cached, fin3.Computed)
	}
	wantCSV, _, _ := batchBytes(t, superset)
	_, gotCSV := fetch(t, ts, "/v1/sweeps/"+third.ID+"/rows", "text/csv")
	if !bytes.Equal(gotCSV, wantCSV) {
		t.Errorf("superset rows (2 cached + 1 computed) differ from a cold batch run:\n--- daemon ---\n%s--- batch ---\n%s",
			gotCSV, wantCSV)
	}
}

// slowSpec is a grid big enough to still be running when the test
// reacts to its first emitted row.
const slowSpec = `{
  "name": "slow",
  "base": {"kind": "trace"},
  "dimensions": [{"gammas": [1, 2, 4, 8]}, {"seeds": [1, 2, 3, 4]}]
}`

// TestCancel covers both cancellation paths: a queued job (behind the
// single executor) cancels immediately; a running job stops early with
// a valid emitted prefix.
func TestCancel(t *testing.T) {
	_, ts := newTestServer(t, Options{Jobs: 1, CachePoints: -1})

	running := submit(t, ts, slowSpec)
	waitState(t, ts, running.ID, func(s jobStatus) bool { return s.Emitted >= 1 })

	// The executor is busy, so this one is deterministically queued.
	queued := submit(t, ts, smokeSpec)
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sweeps/"+queued.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st jobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || st.State != StateCancelled {
		t.Fatalf("queued cancel: %d, state %s (want %s)", resp.StatusCode, st.State, StateCancelled)
	}

	// Now cancel the running sweep mid-flight.
	req, err = http.NewRequest(http.MethodDelete, ts.URL+"/v1/sweeps/"+running.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	fin := waitState(t, ts, running.ID, func(s jobStatus) bool { return terminal(s.State) })
	if fin.State != StateCancelled {
		t.Fatalf("running job ended %s, want %s", fin.State, StateCancelled)
	}
	if fin.Emitted >= 16 {
		t.Fatalf("cancelled job emitted all %d points — stop had no effect", fin.Emitted)
	}

	// Its rows endpoint still serves the valid prefix it did emit.
	code, rows := fetch(t, ts, "/v1/sweeps/"+running.ID+"/rows", "text/csv")
	if code != http.StatusOK {
		t.Fatalf("rows after cancel: %d", code)
	}
	lines := strings.Split(strings.TrimRight(string(rows), "\n"), "\n")
	if len(lines) != 1+fin.Emitted {
		t.Errorf("cancelled rows stream has %d lines, want header + %d rows", len(lines), fin.Emitted)
	}
}

// TestSubmitRejections covers the refusal paths: malformed specs with
// the offending entry named, oversized bodies, full queues, bad
// methods, unknown ids and unacceptable Accept headers.
func TestSubmitRejections(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxSpecBytes: 2048})

	post := func(body string) (int, string) {
		resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	if code, body := post(`{not json`); code != http.StatusBadRequest {
		t.Errorf("bad JSON: %d %s", code, body)
	}
	if code, body := post(`{"dimensions": [{"gammas": [2]}], "bogus": 1}`); code != http.StatusBadRequest || !strings.Contains(body, "bogus") {
		t.Errorf("unknown field: %d %s — must name the entry", code, body)
	}
	if code, body := post(`{"dimensions": [{"gammas": [2], "counts": [3]}]}`); code != http.StatusBadRequest || !strings.Contains(body, "dimensions[0]") {
		t.Errorf("two-axis dimension: %d %s — must name the block", code, body)
	}
	if code, body := post(`{"base": {"kind": "trace", "relays": 7}, "dimensions": [{"gammas": [2]}]}`); code != http.StatusBadRequest || !strings.Contains(body, "relays") {
		t.Errorf("kind-mismatched field: %d %s — must name the field", code, body)
	}
	// Points are expanded only when they run, so a value no mutator can
	// apply must be refused when the spec renders, not fail the job.
	if code, body := post(`{"dimensions": [{"hopcounts": [0]}]}`); code != http.StatusBadRequest || !strings.Contains(body, "dimensions[0]") {
		t.Errorf("zero hop count: %d %s — must be a 400 naming the block", code, body)
	}
	big := `{"name": "` + strings.Repeat("x", 4096) + `", "dimensions": [{"gammas": [2]}]}`
	if code, body := post(big); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized spec: %d %s", code, body)
	}

	if code, body := fetch(t, ts, "/v1/sweeps/sweep-000099", ""); code != http.StatusNotFound {
		t.Errorf("unknown id: %d %s", code, string(body))
	}
	if code, body := fetch(t, ts, "/v1/sweeps/sweep-000099/rows", ""); code != http.StatusNotFound {
		t.Errorf("unknown id rows: %d %s", code, string(body))
	}

	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/sweeps", strings.NewReader("{}"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("PUT collection: %d", resp.StatusCode)
	}

	st := submit(t, ts, smokeSpec)
	waitState(t, ts, st.ID, func(s jobStatus) bool { return terminal(s.State) })
	if code, body := fetch(t, ts, "/v1/sweeps/"+st.ID+"/rows", "application/parquet"); code != http.StatusNotAcceptable {
		t.Errorf("bad accept: %d %s", code, string(body))
	}
	if code, _ := fetch(t, ts, "/v1/sweeps/"+st.ID+"/nonsense", ""); code != http.StatusNotFound {
		t.Errorf("unknown subresource: %d", code)
	}
}

// TestPanickingGridPointFailsJob checks that a mutator panic — raised
// on an engine worker goroutine, out of reach of net/http's handler
// recovery — fails its job instead of killing the daemon: the job ends
// failed with the point named, and the next submission completes.
func TestPanickingGridPointFailsJob(t *testing.T) {
	// One sweep worker, so point 0 completes before point 1 is claimed.
	srv, ts := newTestServer(t, Options{SweepWorkers: 1})
	f, err := spec.Parse([]byte(smokeSpec))
	if err != nil {
		t.Fatal(err)
	}
	sw, err := f.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	sw.Dimensions = []sweep.Dimension{sweep.Custom("mutator",
		sweep.Value{Label: "ok", Apply: func(*scenario.Scenario) error { return nil }},
		sweep.Value{Label: "boom", Apply: func(*scenario.Scenario) error { panic("mutator bug") }},
	)}
	j, err := newJob(sw, "panic-test")
	if err != nil {
		t.Fatal(err)
	}
	if !srv.enqueue(j) {
		t.Fatal("queue full")
	}
	fin := waitState(t, ts, j.id, func(s jobStatus) bool { return terminal(s.State) })
	if fin.State != StateFailed || !strings.Contains(fin.Error, "point 1 (boom)") || !strings.Contains(fin.Error, "mutator bug") {
		t.Fatalf("panicking job ended %s (%q), want %s naming point 1 and the panic", fin.State, fin.Error, StateFailed)
	}
	if fin.Emitted != 1 {
		t.Errorf("panicking job emitted %d points, want point 0 only", fin.Emitted)
	}

	next := submit(t, ts, smokeSpec)
	if st := waitState(t, ts, next.ID, func(s jobStatus) bool { return terminal(s.State) }); st.State != StateDone {
		t.Fatalf("submission after the panic ended %s (%q), want %s", st.State, st.Error, StateDone)
	}
}

// TestSummaryBeforeDone pins the 409 contract: the summary exists only
// once the sweep is terminal.
func TestSummaryBeforeDone(t *testing.T) {
	_, ts := newTestServer(t, Options{Jobs: 1})
	running := submit(t, ts, slowSpec)
	waitState(t, ts, running.ID, func(s jobStatus) bool { return s.Emitted >= 1 })
	code, body := fetch(t, ts, "/v1/sweeps/"+running.ID+"/summary", "text/plain")
	if code != http.StatusConflict {
		t.Errorf("summary mid-run: %d %s", code, string(body))
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sweeps/"+running.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	waitState(t, ts, running.ID, func(s jobStatus) bool { return terminal(s.State) })
}

// TestHealthzAndList sanity-checks the liveness and listing endpoints.
// A finished job leaves its trial arenas on the idle list, and healthz
// reports them: at least one pool, at most GOMAXPROCS, holding the
// cells and frames its trials grew.
func TestHealthzAndList(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	st := submit(t, ts, smokeSpec)
	waitState(t, ts, st.ID, func(s jobStatus) bool { return terminal(s.State) })

	code, body := fetch(t, ts, "/v1/healthz", "")
	if code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	var health struct {
		OK    bool `json:"ok"`
		Jobs  int  `json:"jobs"`
		Cache struct {
			Points int `json:"points"`
		} `json:"cache"`
		Arenas struct {
			IdlePools int `json:"idle_pools"`
			Cells     int `json:"cells"`
			Frames    int `json:"frames"`
		} `json:"arenas"`
	}
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatalf("healthz: %v\n%s", err, body)
	}
	if !health.OK || health.Jobs != 1 || health.Cache.Points != 2 {
		t.Errorf("healthz = %s", body)
	}
	if a := health.Arenas; a.IdlePools < 1 || a.IdlePools > runtime.GOMAXPROCS(0) || a.Cells == 0 || a.Frames == 0 {
		t.Errorf("healthz arenas = %+v, want 1..GOMAXPROCS idle pools holding cells and frames\n%s", a, body)
	}

	code, body = fetch(t, ts, "/v1/sweeps", "")
	if code != http.StatusOK {
		t.Fatalf("list: %d", code)
	}
	var list struct {
		Sweeps []jobStatus `json:"sweeps"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Sweeps) != 1 || list.Sweeps[0].ID != st.ID {
		t.Errorf("list = %s", body)
	}
}

// TestJobEviction checks that finished jobs are evicted past MaxJobs
// while their cached points keep serving replays.
func TestJobEviction(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxJobs: 2})
	var ids []string
	for i := 0; i < 3; i++ {
		st := submit(t, ts, smokeSpec)
		waitState(t, ts, st.ID, func(s jobStatus) bool { return terminal(s.State) })
		ids = append(ids, st.ID)
	}
	if code, _ := fetch(t, ts, "/v1/sweeps/"+ids[0], ""); code != http.StatusNotFound {
		t.Errorf("oldest job survived eviction: %d", code)
	}
	if code, _ := fetch(t, ts, "/v1/sweeps/"+ids[2], ""); code != http.StatusOK {
		t.Errorf("newest job evicted: %d", code)
	}
	// The evicted job's points still serve from the cache.
	last := getStatus(t, ts, ids[2])
	if last.Cached != 2 || last.Computed != 0 {
		t.Errorf("third run cached/computed = %d/%d, want 2/0", last.Cached, last.Computed)
	}
}

// TestQueueFull pins the backpressure contract: submissions beyond the
// queue depth are refused with 503, not silently dropped.
func TestQueueFull(t *testing.T) {
	_, ts := newTestServer(t, Options{Jobs: 1, QueueDepth: 1, CachePoints: -1})
	running := submit(t, ts, slowSpec)
	waitState(t, ts, running.ID, func(s jobStatus) bool { return s.Emitted >= 1 })
	queued := submit(t, ts, smokeSpec) // fills the queue

	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(smokeSpec))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow submit: %d %s", resp.StatusCode, body)
	}

	// Unwind: cancel both so Close doesn't wait on the full grid.
	for _, id := range []string{queued.ID, running.ID} {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sweeps/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	waitState(t, ts, running.ID, func(s jobStatus) bool { return terminal(s.State) })
}

// TestHTTPServerReadHeaderTimeout pins the listener-side limit: the
// server ListenAndServe runs drops a client that has not finished its
// request headers after readHeaderTimeout, instead of holding its
// connection and goroutine forever.
func TestHTTPServerReadHeaderTimeout(t *testing.T) {
	srv := newHTTPServer("127.0.0.1:0", http.NotFoundHandler())
	if readHeaderTimeout <= 0 || srv.ReadHeaderTimeout != readHeaderTimeout {
		t.Fatalf("ReadHeaderTimeout = %v, want the positive constant %v", srv.ReadHeaderTimeout, readHeaderTimeout)
	}
}

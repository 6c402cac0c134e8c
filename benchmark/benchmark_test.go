package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestManifestMatchesEmission runs every workload at smoke scale, end
// to end and traced, and checks that what the program emits and what
// ../BENCHMARK.json declares are the same names with the same units.
func TestManifestMatchesEmission(t *testing.T) {
	m, err := readManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

	if len(m.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the program has %d", len(m.Workloads), len(workloads))
	}
	for _, w := range m.Workloads {
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not in the program", w.Name)
		}
		if !name.MatchString(w.Name) {
			t.Errorf("workload name %q is malformed", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
	}
	hasSetup := false
	for _, mt := range m.EndToEnd {
		if mt.Bound <= 0 || mt.Bound > 0.25 {
			t.Errorf("end-to-end metric %q has bound %v, want (0, 0.25]", mt.Name, mt.Bound)
		}
		hasSetup = hasSetup || (mt.Name == "setup_s" && mt.Unit == "s" && mt.Better == "lower")
	}
	if !hasSetup {
		t.Error("BENCHMARK.json lacks setup_s in s, lower is better")
	}

	check := func(t *testing.T, res runResult, declared []manifestMetric) {
		t.Helper()
		for _, e := range res.errs {
			t.Log(e)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Fatalf("correct=%t failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
		}
		want := make(map[string]manifestMetric)
		for _, mt := range declared {
			want[mt.Name] = mt
			if !name.MatchString(mt.Name) {
				t.Errorf("metric name %q is malformed", mt.Name)
			}
			if mt.Better != "lower" && mt.Better != "higher" {
				t.Errorf("metric %q: better is %q", mt.Name, mt.Better)
			}
		}
		for n, got := range res.Metrics {
			decl, ok := want[n]
			if !ok {
				t.Errorf("emitted metric %q is not in BENCHMARK.json", n)
				continue
			}
			if got.Unit == "" || got.Unit != decl.Unit {
				t.Errorf("metric %q emitted in %q, declared in %q", n, got.Unit, decl.Unit)
			}
			if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
				t.Errorf("metric %q is %v", n, got.Value)
			}
			delete(want, n)
		}
		for n := range want {
			t.Errorf("declared metric %q was not emitted", n)
		}
	}

	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			cfg := runConfig{seed: 42, sizes: smokeSizes, setups: 1}
			res := runWorkload(w, cfg)
			check(t, res, m.EndToEnd)
			for _, mt := range m.EndToEnd {
				if res.Metrics[mt.Name].Value <= 0 {
					t.Errorf("end-to-end metric %q is %v; it must never be 0", mt.Name, res.Metrics[mt.Name].Value)
				}
			}
			again := runWorkload(w, cfg)
			if again.OutputSHA256 != res.OutputSHA256 {
				t.Errorf("output_sha256 differs between two runs at one seed")
			}
			// The trace base the grids sweep is deterministic whatever
			// its seed, so only the trial workloads must differ by seed.
			cfg.seed = 7
			switch w.name {
			case "fig1_cdf", "bulk_trains", "churn_faults", "scale_sharded":
				if other := runWorkload(w, cfg); other.OutputSHA256 == res.OutputSHA256 {
					t.Errorf("seeds 42 and 7 rendered the same output: the seed does not reach the input")
				}
			}

			cfg = runConfig{seed: 42, sizes: smokeSizes, setups: 1, trace: true}
			traced := runWorkload(w, cfg)
			check(t, traced, m.PerLayer)
			path := filepath.Join("out", "trace-"+w.name+"-seed42.json")
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var tf traceFile
			if err := json.Unmarshal(data, &tf); err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			if len(tf.Spans) == 0 || len(tf.Totals) == 0 || len(tf.Counts) == 0 {
				t.Errorf("%s holds %d spans, %d totals, %d counts", path, len(tf.Spans), len(tf.Totals), len(tf.Counts))
			}
		})
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 800)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // descending, so tail must sort
	}
	v, pct := tail(xs)
	if v != 790 || pct != 98.75 {
		t.Errorf("tail of 1..800 = %v at p%v, want 790 at p98.75 (ten samples beyond)", v, pct)
	}
	beyond := 0
	for _, x := range xs {
		if x > v {
			beyond++
		}
	}
	if beyond != tailBeyond {
		t.Errorf("%d samples beyond the reported tail, want %d", beyond, tailBeyond)
	}
	if v, pct := tail(xs[:tailMinSamples]); v != xs[tailBeyond] || pct != 95 {
		t.Errorf("tail of %d samples = %v at p%v, want p95", tailMinSamples, v, pct)
	}
	// Fewer samples support no percentile worth calling a tail: report
	// the median and say so.
	if v, pct := tail(xs[:tailMinSamples-1]); v != median(xs[:tailMinSamples-1]) || pct != 50 {
		t.Errorf("tail of %d samples = %v at p%v, want the median at p50", tailMinSamples-1, v, pct)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles(1,2,4,8,16) = %v, %v, want 1.5, 12", q1, q3)
	}
	if s := spread([]float64{1, 2, 4, 8, 16}); s != (12-1.5)/4 {
		t.Errorf("spread = %v, want %v", s, (12-1.5)/4)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	tr := newTracer("t")
	tr.spans = []span{
		{ID: 0, Parent: -1, Name: "parent", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "child", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "child", Start: 30, End: 60}, // overlaps the first
		{ID: 3, Parent: 2, Name: "grandchild", Start: 35, End: 45},
	}
	got := make(map[string]spanTotal)
	for _, tot := range tr.totals() {
		got[tot.Name] = tot
	}
	if p := got["parent"]; p.Total != 100 || p.Self != 50 {
		t.Errorf("parent total %d self %d, want 100 and 50 (children cover 10..60 once)", p.Total, p.Self)
	}
	if c := got["child"]; c.Calls != 2 || c.Total != 60 || c.Self != 50 || c.Parent != "parent" {
		t.Errorf("child = %+v, want 2 calls, total 60, self 50 under parent", c)
	}
	// A nil tracer is the untraced run: everything is a no-op.
	var off *tracer
	off.span("x")()
	off.count("x", 1)
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(file string, scale, jitter float64, sha string) string {
		var buf bytes.Buffer
		for seed := int64(1); seed <= 10; seed++ {
			v := scale * (1 + jitter*float64(seed%5))
			rec := runResult{Workload: "fig1_cdf", Seed: seed, Correct: true, Attempted: 1, OutputSHA256: sha,
				Metrics: map[string]metric{"op_p50_ms": {1000 * v, "ms"}, "work_per_s": {50000 / v, "1/s"}, "setup_s": {v, "s"}}}
			if err := json.NewEncoder(&buf).Encode(rec); err != nil {
				t.Fatal(err)
			}
		}
		path := filepath.Join(dir, file)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.jsonl", 1, 0.001, "x")
	for _, c := range []struct {
		name    string
		path    string
		ok      bool
		verdict string
	}{
		{"same", write("same.jsonl", 1.01, 0.001, "x"), true, " ok"},
		{"slower", write("slower.jsonl", 1.5, 0.001, "x"), false, "regressed"},
		{"noisy", write("noisy.jsonl", 1, 0.2, "x"), false, "unresolved"},
		{"different output", write("sha.jsonl", 1, 0.001, "y"), false, "output_sha256 differs"},
	} {
		var out bytes.Buffer
		ok, err := compareFiles(&out, base, c.path)
		if err != nil {
			t.Fatal(err)
		}
		if ok != c.ok || !strings.Contains(out.String(), c.verdict) {
			t.Errorf("%s: ok=%t, want %t with %q in:\n%s", c.name, ok, c.ok, c.verdict, out.String())
		}
	}
}

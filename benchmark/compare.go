package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// manifest is the part of ../BENCHMARK.json the benchmark reads back:
// names, units, directions and bounds live there and nowhere else.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readManifest(path string) (manifest, error) {
	var m manifest
	data, err := os.ReadFile(path)
	if err != nil {
		return m, err
	}
	return m, json.Unmarshal(data, &m)
}

func readRecords(path string) ([]runResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []runResult
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var r runResult
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// compareFiles prints, per workload and end-to-end metric, both sets'
// medians, how much worse b is than a, both spreads and the bound, and
// a verdict: regressed when b is worse by more than the bound,
// unresolved when either set's own spread is wider than the bound, ok
// otherwise. It also demands what must repeat exactly: no failed
// operations, and equal output digests and counts at equal seeds. It
// reports whether everything was ok.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	m, err := readManifest("../BENCHMARK.json")
	if err != nil {
		return false, err
	}
	a, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	allOK := true

	values := func(rs []runResult, workload, name string) []float64 {
		var xs []float64
		for _, r := range rs {
			if mt, ok := r.Metrics[name]; ok && r.Workload == workload && !r.Trace {
				xs = append(xs, mt.Value)
			}
		}
		return xs
	}
	fmt.Fprintf(w, "%-14s %-17s %5s %13s %13s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "n", "median a", "median b", "worse", "spread a", "spread b", "bound", "verdict")
	for _, wl := range m.Workloads {
		for _, mt := range m.EndToEnd {
			xa, xb := values(a, wl.Name, mt.Name), values(b, wl.Name, mt.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			ma, mb := median(xa), median(xb)
			worse := (mb - ma) / ma
			if mt.Better == "higher" {
				worse = -worse
			}
			sa, sb := spread(xa), spread(xb)
			verdict := "ok"
			switch {
			case mt.Name != "setup_s" && (sa > mt.Bound || sb > mt.Bound):
				verdict, allOK = "unresolved", false
			case worse > mt.Bound:
				verdict, allOK = "regressed", false
			}
			fmt.Fprintf(w, "%-14s %-17s %2d/%-2d %13.6g %13.6g %+7.1f%% %7.1f%% %7.1f%% %5.0f%%  %s\n",
				wl.Name, mt.Name, len(xa), len(xb), ma, mb, 100*worse, 100*sa, 100*sb, 100*mt.Bound, verdict)
		}
	}

	// Exact repeats: same workload, seed and mode must have simulated
	// the same thing.
	counts := make(map[string]bool)
	for _, mt := range m.PerLayer {
		if mt.Unit == "count" {
			counts[mt.Name] = true
		}
	}
	type key struct {
		workload string
		seed     int64
		trace    bool
	}
	first := make(map[key]runResult)
	for _, r := range a {
		first[key{r.Workload, r.Seed, r.Trace}] = r
	}
	for _, r := range append(append([]runResult(nil), a...), b...) {
		if r.Failed != 0 || !r.Correct {
			fmt.Fprintf(w, "%s seed %d: %d of %d ops failed\n", r.Workload, r.Seed, r.Failed, r.Attempted)
			allOK = false
		}
	}
	for _, r := range b {
		ref, ok := first[key{r.Workload, r.Seed, r.Trace}]
		if !ok {
			continue
		}
		if ref.OutputSHA256 != r.OutputSHA256 {
			fmt.Fprintf(w, "%s seed %d: output_sha256 differs (%s vs %s)\n", r.Workload, r.Seed, ref.OutputSHA256, r.OutputSHA256)
			allOK = false
		}
		for name := range counts {
			if va, vb := ref.Metrics[name], r.Metrics[name]; va != vb {
				fmt.Fprintf(w, "%s seed %d: count %s differs (%g vs %g)\n", r.Workload, r.Seed, name, va.Value, vb.Value)
				allOK = false
			}
		}
	}
	return allOK, nil
}

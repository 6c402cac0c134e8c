package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// End-to-end metrics, in report order. Every workload reports every
// one; the README says what each means on each workload.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"first_row_p50_ms", "ms"},
	{"work_per_s", "1/s"},
	{"alloc_mb", "MB"},
}

// setupRuns is how often an end-to-end run sets the workload up; the
// median is setup_s. The last instance is the one measured.
const setupRuns = 3

// runConfig is one invocation's arguments.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	sizes   sizes
	setups  int
}

// runResult is one run of one workload: what the last stdout line
// carries, plus what -compare and the trace file need.
type runResult struct {
	Workload     string            `json:"workload"`
	Seed         int64             `json:"seed"`
	Trace        bool              `json:"trace"`
	GOMAXPROCS   int               `json:"gomaxprocs"`
	OutputSHA256 string            `json:"output_sha256"`
	Correct      bool              `json:"correct"`
	Attempted    int               `json:"attempted"`
	Failed       int               `json:"failed"`
	Metrics      map[string]metric `json:"metrics"`

	// samples and tailPct annotate the human-readable table only.
	samples int
	tailPct float64
	errs    []string
}

// runWorkload sets a workload up, measures it for cfg.seconds and
// checks its outputs. Failures are counted, not fatal: the caller
// prints the result and exits non-zero when Correct is false.
func runWorkload(w workloadDef, cfg runConfig) runResult {
	res := runResult{
		Workload: w.name, Seed: cfg.seed, Trace: cfg.trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0), Metrics: make(map[string]metric),
	}
	fail := func(n int, format string, args ...any) {
		res.Failed += n
		res.errs = append(res.errs, fmt.Sprintf(format, args...))
	}

	var tr *tracer
	if cfg.trace {
		tr = newTracer(fmt.Sprintf("%s/seed=%d", w.name, cfg.seed))
	}

	// Set-up. Tracing never touches it: setup_s is an end-to-end metric.
	var inst instance
	var setups []float64
	for i := 0; i < cfg.setups; i++ {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		start := time.Now()
		var err error
		inst, err = w.setup(cfg.seed, cfg.sizes)
		setups = append(setups, time.Since(start).Seconds())
		if err != nil {
			res.Attempted++
			fail(1, "set-up: %v", err)
			return res
		}
	}
	defer inst.close()
	ref := inst.reference()

	// Timed section: repetitions until the budget is spent. In a traced
	// run every other repetition records spans, so the two halves give
	// the tracing overhead under identical conditions; the budget is
	// halved there to leave room for the layer probes.
	budget := cfg.seconds
	if cfg.trace {
		budget /= 2
	}
	var wall, first, work, alloc, traced, untraced []float64
	start := time.Now()
	for i := 0; i < 2 || time.Since(start).Seconds() < budget; i++ {
		repTracer := tr
		if i%2 == 1 {
			repTracer = nil
		}
		runtime.GC()
		before := allocatedBytes()
		done := repTracer.span("rep")
		r, err := inst.rep(repTracer)
		done()
		allocated := allocatedBytes() - before
		res.Attempted++ // the repetition's own output check
		if err != nil {
			fail(1, "repetition %d: %v", i, err)
			continue
		}
		res.Attempted += r.ops
		if r.failed > 0 {
			fail(r.failed, "repetition %d: %d of %d operations failed", i, r.failed, r.ops)
		}
		if r.output != nil && !bytes.Equal(r.output, ref) {
			fail(1, "repetition %d: output differs from the warm-up repetition's", i)
		}
		ms := float64(r.wall) / float64(time.Millisecond)
		wall = append(wall, ms)
		first = append(first, float64(r.firstRow)/float64(time.Millisecond))
		work = append(work, r.work/r.wall.Seconds())
		alloc = append(alloc, float64(allocated)/1e6)
		if repTracer != nil {
			traced = append(traced, ms)
		} else {
			untraced = append(untraced, ms)
		}
	}
	res.samples = len(wall)

	attempted, failed, err := inst.verify()
	res.Attempted += attempted
	if failed > 0 || err != nil {
		fail(failed, "verify: %v", err)
	}
	sum := sha256.Sum256(ref)
	res.OutputSHA256 = hex.EncodeToString(sum[:])

	if cfg.trace {
		layers, errs := layerProbes(cfg.seed, cfg.sizes, tr)
		for name, m := range layers {
			res.Metrics[name] = m
		}
		res.Attempted += len(errs)
		for _, err := range errs {
			fail(1, "layer probe: %v", err)
		}
		if len(traced) > 0 && len(untraced) > 0 {
			res.Metrics["trace.overhead_ratio"] = metric{median(traced) / median(untraced), "ratio"}
		}
	} else if len(wall) > 0 {
		tailMs, pct := tail(wall)
		res.tailPct = pct
		values := map[string]float64{
			"setup_s": median(setups), "op_p50_ms": median(wall), "op_tail_ms": tailMs,
			"first_row_p50_ms": median(first), "work_per_s": median(work), "alloc_mb": median(alloc),
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{values[m.name], m.unit}
		}
	}
	res.Correct = res.Failed == 0

	if cfg.trace {
		path := fmt.Sprintf("out/trace-%s-seed%d.json", w.name, cfg.seed)
		if err := tr.write(path, res); err != nil {
			res.Correct = false
			res.errs = append(res.errs, fmt.Sprintf("writing %s: %v", path, err))
		} else {
			res.errs = append(res.errs, "trace written to benchmark/"+path)
		}
	}
	return res
}

// report prints the human-readable table: every metric by name with
// its unit, the sample count and the percentile the tail stands for.
func (r runResult) report(w io.Writer) {
	fmt.Fprintf(w, "workload %s  seed %d  trace %t  GOMAXPROCS %d  repetitions %d\n",
		r.Workload, r.Seed, r.Trace, r.GOMAXPROCS, r.samples)
	names := make([]string, 0, len(r.Metrics))
	if r.Trace {
		for name := range r.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
	} else {
		for _, m := range endToEnd {
			names = append(names, m.name)
		}
	}
	for _, name := range names {
		m, ok := r.Metrics[name]
		if !ok {
			continue
		}
		note := ""
		switch name {
		case "setup_s":
			note = fmt.Sprintf("median of %d set-ups", setupRuns)
		case "op_tail_ms":
			note = fmt.Sprintf("p%.4g of n=%d", r.tailPct, r.samples)
			if r.tailPct == 50 {
				note = fmt.Sprintf("median of n=%d (too few samples for a higher percentile)", r.samples)
			}
		case "op_p50_ms", "first_row_p50_ms", "work_per_s", "alloc_mb":
			note = fmt.Sprintf("median of n=%d", r.samples)
		}
		fmt.Fprintf(w, "  %-34s %16.6g %-6s %s\n", name, m.Value, m.Unit, note)
	}
	fmt.Fprintf(w, "  failed_ops %d of %d ops   output_sha256 %s\n", r.Failed, r.Attempted, r.OutputSHA256)
	for _, e := range r.errs {
		fmt.Fprintf(w, "  note: %s\n", e)
	}
}

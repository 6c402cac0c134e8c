package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans are recorded
// from the benchmark's own files, around calls into a layer's public
// functions; nothing inside the simulator is instrumented.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 at the root
	Run    string `json:"run"`    // shared by every span of one benchmark run
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// tracer keeps spans and counts in memory until the run ends. A nil
// *tracer records nothing, which is how the end-to-end run and the
// untraced half of the overhead comparison run the same code.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	run    string
	spans  []span
	open   []int // stack of open span ids; the top is the next parent
	counts map[string]int64
}

func newTracer(run string) *tracer {
	return &tracer{t0: time.Now(), run: run, counts: make(map[string]int64)}
}

// span opens a span under the innermost open one and returns the
// function that closes it. Sinks run on the sweep engine's emit
// goroutine while the caller is blocked inside Engine.Run, so one
// mutex-guarded stack still names the right parent.
func (t *tracer) span(name string) func() {
	if t == nil {
		return func() {}
	}
	t.mu.Lock()
	id := len(t.spans)
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Name: name, Start: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
	t.mu.Unlock()
	return func() {
		end := int64(time.Since(t.t0))
		t.mu.Lock()
		t.spans[id].End = end
		for i := len(t.open) - 1; i >= 0; i-- {
			if t.open[i] == id {
				t.open = append(t.open[:i], t.open[i+1:]...)
				break
			}
		}
		t.mu.Unlock()
	}
}

// count adds n to a named counter.
func (t *tracer) count(name string, n int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += n
	t.mu.Unlock()
}

// spanTotal aggregates every span of one name.
type spanTotal struct {
	Name   string `json:"name"`
	Calls  int    `json:"calls"`
	Total  int64  `json:"total_ns"`
	Self   int64  `json:"self_ns"` // total minus the part child spans cover
	Parent string `json:"parent,omitempty"`
}

// totals returns per-name duration and self time, sorted by name. A
// span's self time is its duration minus the union of its children's
// intervals, so overlapping children are not subtracted twice.
func (t *tracer) totals() []spanTotal {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := make(map[string]*spanTotal)
	for _, s := range t.spans {
		tot := byName[s.Name]
		if tot == nil {
			tot = &spanTotal{Name: s.Name}
			if s.Parent >= 0 {
				tot.Parent = t.spans[s.Parent].Name
			}
			byName[s.Name] = tot
		}
		tot.Calls++
		tot.Total += s.End - s.Start
		tot.Self += s.End - s.Start - covered(children[s.ID])
	}
	out := make([]spanTotal, 0, len(byName))
	for _, tot := range byName {
		out = append(out, *tot)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered is the length of the union of the spans' intervals.
func covered(spans []span) int64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var sum, end int64
	for _, s := range spans {
		if s.End <= end {
			continue
		}
		start := s.Start
		if start < end {
			start = end
		}
		sum += s.End - start
		end = s.End
	}
	return sum
}

// traceFile is what a traced run leaves under out/.
type traceFile struct {
	Run    runResult        `json:"run"`
	Totals []spanTotal      `json:"span_totals"`
	Counts map[string]int64 `json:"counts"`
	Spans  []span           `json:"spans"`
}

// write stores the spans, the counts and the run's per-layer table.
func (t *tracer) write(path string, res runResult) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	totals := t.totals()
	t.mu.Lock()
	data, err := json.MarshalIndent(traceFile{Run: res, Totals: totals, Counts: t.counts, Spans: t.spans}, "", " ")
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

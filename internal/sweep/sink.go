package sweep

import (
	"fmt"
	"io"
	"sort"

	"circuitstart/internal/traceio"
)

// Meta describes a starting sweep to its sinks.
type Meta struct {
	// Name is the sweep's label.
	Name string
	// Dimensions are the axis names, in declaration order — the
	// coordinate columns of every row.
	Dimensions []string
	// GridSize is the full cross-product size.
	GridSize int
	// Points is how many points this run will execute (less than
	// GridSize under sampling or resumption).
	Points int
}

// Sink consumes a sweep's results as a stream: Begin once with the
// grid metadata, Point once per completed grid point in grid order,
// Flush once at the end (also on a failed sweep, with the points that
// completed). Sinks run on a single goroutine and never concurrently.
type Sink interface {
	Begin(meta Meta) error
	Point(pr *PointResult) error
	Flush() error
}

// metricColumns is the fixed per-arm column schema shared by the CSV
// and JSONL sinks (and mirrored by ArmPoint's fields). CSVSink.Point
// appends the cells in exactly this order.
var metricColumns = []string{
	"n", "incomplete",
	"ttlb_mean_s", "ttlb_min_s", "ttlb_p25_s", "ttlb_p50_s", "ttlb_p75_s", "ttlb_p90_s", "ttlb_p99_s", "ttlb_max_s",
	"exit_cwnd", "exit_time_s", "restarts",
	"unknown_dst", "unroutable", "trunk_drops", "mean_train",
	"built", "torn_down", "rebuilt", "aborted",
	"jain_ttlb", "adm_rejected", "killed", "sched_drops", "mem_hw_bytes",
	"stalls", "recoveries", "retries", "abandoned", "ttr_p50_s", "availability", "goodput_kbps",
}

// CSVSink streams one row per (point, arm): the point's grid index,
// one coordinate column per dimension, the arm label, then the fixed
// metric columns.
type CSVSink struct {
	w      io.Writer
	cs     *traceio.CSVStream
	resume bool
}

// NewCSVSink returns a sink writing CSV to w.
func NewCSVSink(w io.Writer) *CSVSink { return &CSVSink{w: w} }

// NewCSVAppendSink returns a sink that writes no header row — for
// appending a resumed sweep's remaining rows to a file that already
// holds the completed prefix (open the file with O_APPEND).
func NewCSVAppendSink(w io.Writer) *CSVSink { return &CSVSink{w: w, resume: true} }

// Begin implements Sink: writes the header row (unless resuming).
func (s *CSVSink) Begin(meta Meta) error {
	header := append([]string{"point"}, meta.Dimensions...)
	header = append(header, "arm")
	header = append(header, metricColumns...)
	var err error
	if s.resume {
		s.cs, err = traceio.NewCSVStreamNoHeader(s.w, len(header))
	} else {
		s.cs, err = traceio.NewCSVStream(s.w, header...)
	}
	return err
}

// Point implements Sink: one record of typed cells per arm — the grid
// index, the coordinates, the arm, then metricColumns in order.
func (s *CSVSink) Point(pr *PointResult) error {
	cs := s.cs
	for i := range pr.Arms {
		ap := &pr.Arms[i]
		cs.Int(int64(pr.Point.Index))
		for _, c := range pr.Point.Coords {
			cs.Field(c)
		}
		cs.Field(ap.Arm)

		cs.Int(int64(ap.TTLB.N))
		cs.Int(int64(ap.Incomplete))
		for _, v := range [...]float64{
			ap.TTLB.Mean, ap.TTLB.Min, ap.TTLB.P25, ap.TTLB.Median, ap.TTLB.P75, ap.TTLB.P90, ap.TTLB.P99, ap.TTLB.Max,
			ap.ExitCwndMean, ap.ExitTimeMedian,
		} {
			cs.Float(v)
		}
		for _, v := range [...]uint64{ap.Restarts, ap.UnknownDst, ap.Unroutable, ap.TrunkDrops} {
			cs.Uint(v)
		}
		cs.Float(ap.MeanTrainLen)
		for _, v := range [...]int{ap.Built, ap.TornDown, ap.Rebuilt, ap.Aborted} {
			cs.Int(int64(v))
		}
		cs.Float(ap.Jain)
		for _, v := range [...]uint64{ap.AdmissionRejected, ap.Killed, ap.SchedDrops} {
			cs.Uint(v)
		}
		cs.Int(ap.MemHighWater)
		for _, v := range [...]int{ap.Stalls, ap.Recoveries, ap.Retries, ap.Abandoned} {
			cs.Int(int64(v))
		}
		for _, v := range [...]float64{ap.TTRP50, ap.Availability, ap.GoodputKBps} {
			cs.Float(v)
		}
		if err := cs.EndRecord(); err != nil {
			return err
		}
	}
	return nil
}

// Flush implements Sink. CSVStream writes through, so there is nothing
// buffered to release.
func (s *CSVSink) Flush() error { return nil }

// jsonlHeader is the first line of a JSONL sweep file.
type jsonlHeader struct {
	Schema     string   `json:"schema"`
	Name       string   `json:"name,omitempty"`
	Dimensions []string `json:"dimensions"`
	GridSize   int      `json:"grid_size"`
	Points     int      `json:"points"`
}

// JSONLRow is one (point, arm) record of a JSONL sweep file. Test-only:
// TestJSONLRoundTrip decodes rows into it.
type JSONLRow struct {
	Point      int               `json:"point"`
	Coords     map[string]string `json:"coords"`
	Arm        string            `json:"arm"`
	N          int               `json:"n"`
	Incomplete int               `json:"incomplete"`
	TTLBMean   float64           `json:"ttlb_mean_s"`
	TTLBMin    float64           `json:"ttlb_min_s"`
	TTLBP25    float64           `json:"ttlb_p25_s"`
	TTLBP50    float64           `json:"ttlb_p50_s"`
	TTLBP75    float64           `json:"ttlb_p75_s"`
	TTLBP90    float64           `json:"ttlb_p90_s"`
	TTLBP99    float64           `json:"ttlb_p99_s"`
	TTLBMax    float64           `json:"ttlb_max_s"`
	ExitCwnd   float64           `json:"exit_cwnd"`
	ExitTime   float64           `json:"exit_time_s"`
	Restarts   uint64            `json:"restarts"`
	UnknownDst uint64            `json:"unknown_dst"`
	Unroutable uint64            `json:"unroutable"`
	TrunkDrops uint64            `json:"trunk_drops"`
	MeanTrain  float64           `json:"mean_train"`
	Built      int               `json:"built"`
	TornDown   int               `json:"torn_down"`
	Rebuilt    int               `json:"rebuilt"`
	Aborted    int               `json:"aborted"`
	Jain       float64           `json:"jain_ttlb"`
	AdmRejects uint64            `json:"adm_rejected"`
	Killed     uint64            `json:"killed"`
	SchedDrops uint64            `json:"sched_drops"`
	MemHW      int64             `json:"mem_hw_bytes"`
	Stalls     int               `json:"stalls"`
	Recoveries int               `json:"recoveries"`
	Retries    int               `json:"retries"`
	Abandoned  int               `json:"abandoned"`
	TTRP50     float64           `json:"ttr_p50_s"`
	Avail      float64           `json:"availability"`
	Goodput    float64           `json:"goodput_kbps"`
}

// JSONLSink streams a metadata header line followed by one JSON line
// per (point, arm).
type JSONLSink struct {
	w      io.Writer
	js     *traceio.JSONLStream
	meta   Meta
	resume bool
}

// NewJSONLSink returns a sink writing JSON lines to w.
func NewJSONLSink(w io.Writer) *JSONLSink { return &JSONLSink{w: w} }

// NewJSONLAppendSink returns a sink that writes no metadata header
// line — for appending a resumed sweep's remaining rows to a file
// that already holds the completed prefix.
func NewJSONLAppendSink(w io.Writer) *JSONLSink { return &JSONLSink{w: w, resume: true} }

// Begin implements Sink: writes the header line (unless resuming).
func (s *JSONLSink) Begin(meta Meta) error {
	s.js = traceio.NewJSONLStream(s.w)
	s.meta = meta
	if s.resume {
		return nil
	}
	return s.js.Write(jsonlHeader{
		Schema:     "circuitsim-sweep/v1",
		Name:       meta.Name,
		Dimensions: meta.Dimensions,
		GridSize:   meta.GridSize,
		Points:     meta.Points,
	})
}

// Point implements Sink.
func (s *JSONLSink) Point(pr *PointResult) error {
	coords := make(map[string]string, len(s.meta.Dimensions))
	for i, d := range s.meta.Dimensions {
		coords[d] = pr.Point.Coords[i]
	}
	for i := range pr.Arms {
		ap := &pr.Arms[i]
		row := JSONLRow{
			Point: pr.Point.Index, Coords: coords, Arm: ap.Arm,
			N: ap.TTLB.N, Incomplete: ap.Incomplete,
			TTLBMean: ap.TTLB.Mean, TTLBMin: ap.TTLB.Min,
			TTLBP25: ap.TTLB.P25, TTLBP50: ap.TTLB.Median, TTLBP75: ap.TTLB.P75,
			TTLBP90: ap.TTLB.P90, TTLBP99: ap.TTLB.P99, TTLBMax: ap.TTLB.Max,
			ExitCwnd: ap.ExitCwndMean, ExitTime: ap.ExitTimeMedian, Restarts: ap.Restarts,
			UnknownDst: ap.UnknownDst, Unroutable: ap.Unroutable, TrunkDrops: ap.TrunkDrops,
			MeanTrain: ap.MeanTrainLen,
			Built:     ap.Built, TornDown: ap.TornDown, Rebuilt: ap.Rebuilt, Aborted: ap.Aborted,
			Jain: ap.Jain, AdmRejects: ap.AdmissionRejected, Killed: ap.Killed,
			SchedDrops: ap.SchedDrops, MemHW: ap.MemHighWater,
			Stalls: ap.Stalls, Recoveries: ap.Recoveries, Retries: ap.Retries,
			Abandoned: ap.Abandoned, TTRP50: ap.TTRP50, Avail: ap.Availability,
			Goodput: ap.GoodputKBps,
		}
		if err := s.js.Write(row); err != nil {
			return err
		}
	}
	return nil
}

// Flush implements Sink.
func (s *JSONLSink) Flush() error { return nil }

// Row is one (point, arm) record retained by the in-memory Table.
type Row struct {
	// Point is the grid index; Coords are the dimension value labels.
	Point  int
	Coords []string
	ArmPoint
}

// Table is the in-memory sink: it retains every (point, arm) record
// (dropping the full per-point Results, so memory stays proportional
// to the grid, not the workload) and answers the summary queries the
// CLI and examples print — best arm per point and per-dimension
// marginals.
type Table struct {
	// Meta echoes the sweep the rows came from.
	Meta Meta
	// Rows holds one record per (point, arm), in grid order.
	Rows []Row
}

// newTable returns an empty table; Engine.Run populates and returns it.
func newTable() *Table { return &Table{} }

// Begin implements Sink.
func (t *Table) Begin(meta Meta) error { t.Meta = meta; return nil }

// Point implements Sink.
func (t *Table) Point(pr *PointResult) error {
	for i := range pr.Arms {
		t.Rows = append(t.Rows, Row{Point: pr.Point.Index, Coords: pr.Point.Coords, ArmPoint: pr.Arms[i]})
	}
	return nil
}

// Flush implements Sink.
func (t *Table) Flush() error { return nil }

// Best names the winning arm at one grid point.
type Best struct {
	Point  int
	Coords []string
	// Arm is the arm with the lowest median TTLB among arms that
	// completed at least one transfer ("" when none did).
	Arm string
	// Median is the winning arm's median TTLB in seconds.
	Median float64
}

// BestArms returns the winning arm per grid point, in grid order.
func (t *Table) BestArms() []Best {
	var out []Best
	i := 0
	for i < len(t.Rows) {
		j := i
		best := Best{Point: t.Rows[i].Point, Coords: t.Rows[i].Coords}
		for ; j < len(t.Rows) && t.Rows[j].Point == t.Rows[i].Point; j++ {
			r := &t.Rows[j]
			if r.TTLB.N == 0 {
				continue
			}
			if best.Arm == "" || r.TTLB.Median < best.Median {
				best.Arm, best.Median = r.Arm, r.TTLB.Median
			}
		}
		out = append(out, best)
		i = j
	}
	return out
}

// MarginalRow aggregates one (dimension value, arm) pair across every
// grid point holding that value.
type MarginalRow struct {
	// Value is the dimension value label; Arm the arm name.
	Value string
	Arm   string
	// Points counts grid points with this value where the arm
	// completed at least one transfer.
	Points int
	// MeanMedian averages the arm's per-point median TTLB (seconds)
	// over those points — the marginal response to this value.
	MeanMedian float64
	// Incomplete totals unfinished transfers across the points.
	Incomplete int
	// Wins counts points with this value where the arm was the best.
	Wins int
}

// Marginal collapses the grid onto one dimension: for every value of
// the named axis, the per-arm marginal aggregates across all points
// holding that value. Rows are ordered by first appearance of the
// value, then arm.
func (t *Table) Marginal(dim string) ([]MarginalRow, error) {
	di := -1
	for i, d := range t.Meta.Dimensions {
		if d == dim {
			di = i
		}
	}
	if di < 0 {
		return nil, fmt.Errorf("sweep: no dimension %q (have %v)", dim, t.Meta.Dimensions)
	}
	wins := make(map[[2]string]int)
	winners := t.BestArms()
	for _, b := range winners {
		if b.Arm != "" {
			wins[[2]string{b.Coords[di], b.Arm}]++
		}
	}
	type agg struct {
		order      int
		points     int
		sumMedian  float64
		incomplete int
	}
	aggs := make(map[[2]string]*agg)
	var keys [][2]string
	for _, r := range t.Rows {
		key := [2]string{r.Coords[di], r.Arm}
		a := aggs[key]
		if a == nil {
			a = &agg{order: len(keys)}
			aggs[key] = a
			keys = append(keys, key)
		}
		a.incomplete += r.Incomplete
		if r.TTLB.N > 0 {
			a.points++
			a.sumMedian += r.TTLB.Median
		}
	}
	sort.SliceStable(keys, func(i, j int) bool { return aggs[keys[i]].order < aggs[keys[j]].order })
	out := make([]MarginalRow, len(keys))
	for i, key := range keys {
		a := aggs[key]
		m := MarginalRow{Value: key[0], Arm: key[1], Points: a.points, Incomplete: a.incomplete, Wins: wins[key]}
		if a.points > 0 {
			m.MeanMedian = a.sumMedian / float64(a.points)
		}
		out[i] = m
	}
	return out, nil
}

// WriteText renders the full (point, arm) table with aligned columns —
// a compact subset of the CSV schema for terminal reading. Test-only:
// TestTableSummaries checks it.
func (t *Table) WriteText(w io.Writer) error {
	cols := append([]string{"point"}, t.Meta.Dimensions...)
	cols = append(cols, "arm", "n", "incomplete", "ttlb_p50_s", "ttlb_p90_s", "exit_cwnd", "exit_time_s", "drops")
	tbl := traceio.NewTable(cols...)
	for _, r := range t.Rows {
		cells := make([]any, 0, len(cols))
		cells = append(cells, r.Point)
		for _, c := range r.Coords {
			cells = append(cells, c)
		}
		drops := r.UnknownDst + r.Unroutable + r.TrunkDrops
		cells = append(cells, r.Arm, r.TTLB.N, r.Incomplete, r.TTLB.Median, r.TTLB.P90, r.ExitCwndMean, r.ExitTimeMedian, drops)
		tbl.AddRowf(cells...)
	}
	return tbl.WriteText(w)
}

// WriteSummary renders the canonical sweep summary block — the header
// line, the full (point, arm) table and the per-dimension marginals.
// `circuitsim sweep` prints exactly this to stdout and the serve
// daemon's text summary endpoint returns exactly this body, so a remote
// client's output is byte-identical to a local batch run's.
func (t *Table) WriteSummary(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "sweep %s: %d points over %d dimensions (full grid %d)\n",
		t.Meta.Name, t.Meta.Points, len(t.Meta.Dimensions), t.Meta.GridSize); err != nil {
		return err
	}
	if err := t.WriteText(w); err != nil {
		return err
	}
	return t.WriteMarginals(w)
}

// WriteMarginals renders one aligned marginal table per dimension.
// Test-only: TestTableSummaries checks it.
func (t *Table) WriteMarginals(w io.Writer) error {
	for _, dim := range t.Meta.Dimensions {
		rows, err := t.Marginal(dim)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "marginal over %s:\n", dim); err != nil {
			return err
		}
		tbl := traceio.NewTable(dim, "arm", "points", "mean_median_s", "incomplete", "wins")
		for _, m := range rows {
			tbl.AddRowf(m.Value, m.Arm, m.Points, m.MeanMedian, m.Incomplete, m.Wins)
		}
		if err := tbl.WriteText(w); err != nil {
			return err
		}
	}
	return nil
}

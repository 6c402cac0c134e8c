package sweep_test

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"

	"circuitstart/internal/core"
	"circuitstart/internal/metrics"
	"circuitstart/internal/scenario"
	"circuitstart/internal/sweep"
	"circuitstart/internal/units"
)

// runSmallGrid executes a 2×2 grid with two arms once, streaming into
// both stock sinks, and returns everything the round-trip tests need.
func runSmallGrid(t *testing.T) (*sweep.Table, string, string) {
	t.Helper()
	var cb, jb bytes.Buffer
	sw := sweep.Sweep{
		Name: "roundtrip",
		Base: popBase(
			scenario.Arm{Name: "circuitstart"},
			scenario.Arm{Name: "backtap", Transport: core.TransportOptions{Policy: "backtap"}},
		),
		Dimensions: []sweep.Dimension{
			sweep.Gamma(2, 4),
			sweep.TransferSizes(30*units.Kilobyte, 60*units.Kilobyte),
		},
	}
	tbl, err := sweep.Engine{Workers: 4}.Run(sw, sweep.NewCSVSink(&cb), sweep.NewJSONLSink(&jb))
	if err != nil {
		t.Fatal(err)
	}
	return tbl, cb.String(), jb.String()
}

// TestCSVRoundTrip parses the CSV sink's output back and checks it
// against the in-memory table record for record.
func TestCSVRoundTrip(t *testing.T) {
	tbl, csvOut, _ := runSmallGrid(t)
	recs, err := csv.NewReader(strings.NewReader(csvOut)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	wantHeader := []string{"point", "gamma", "size", "arm", "n", "incomplete",
		"ttlb_mean_s", "ttlb_min_s", "ttlb_p25_s", "ttlb_p50_s", "ttlb_p75_s", "ttlb_p90_s", "ttlb_p99_s", "ttlb_max_s",
		"exit_cwnd", "exit_time_s", "restarts", "unknown_dst", "unroutable", "trunk_drops", "mean_train",
		"built", "torn_down", "rebuilt", "aborted",
		"jain_ttlb", "adm_rejected", "killed", "sched_drops", "mem_hw_bytes",
		"stalls", "recoveries", "retries", "abandoned", "ttr_p50_s", "availability", "goodput_kbps"}
	if strings.Join(recs[0], "|") != strings.Join(wantHeader, "|") {
		t.Fatalf("header = %v\nwant %v", recs[0], wantHeader)
	}
	rows := recs[1:]
	if len(rows) != len(tbl.Rows) {
		t.Fatalf("%d CSV rows, table has %d", len(rows), len(tbl.Rows))
	}
	for i, rec := range rows {
		want := tbl.Rows[i]
		if got, _ := strconv.Atoi(rec[0]); got != want.Point {
			t.Errorf("row %d point = %s, want %d", i, rec[0], want.Point)
		}
		if rec[1] != want.Coords[0] || rec[2] != want.Coords[1] {
			t.Errorf("row %d coords = %v, want %v", i, rec[1:3], want.Coords)
		}
		if rec[3] != want.Arm {
			t.Errorf("row %d arm = %s, want %s", i, rec[3], want.Arm)
		}
		if got, _ := strconv.Atoi(rec[4]); got != want.TTLB.N {
			t.Errorf("row %d n = %s, want %d", i, rec[4], want.TTLB.N)
		}
		if got, err := strconv.ParseFloat(rec[9], 64); err != nil || !close8(got, want.TTLB.Median) {
			t.Errorf("row %d ttlb_p50 = %s, want %v", i, rec[9], want.TTLB.Median)
		}
		if got, err := strconv.ParseFloat(rec[14], 64); err != nil || !close8(got, want.ExitCwndMean) {
			t.Errorf("row %d exit_cwnd = %s, want %v", i, rec[14], want.ExitCwndMean)
		}
	}
	// A sweep of completed transfers must have produced data rows with
	// actual samples, or the round trip proves nothing.
	if tbl.Rows[0].TTLB.N == 0 {
		t.Fatal("no completed transfers in round-trip grid")
	}
}

// close8 compares a float that passed through the 8-significant-digit
// CSV rendering against its source.
func close8(got, want float64) bool {
	if want == 0 {
		return got == 0
	}
	diff := got - want
	if diff < 0 {
		diff = -diff
	}
	scale := want
	if scale < 0 {
		scale = -scale
	}
	return diff/scale < 1e-7
}

// TestJSONLRoundTrip parses the JSONL sink's output back: the header
// line, then one exact record per (point, arm).
func TestJSONLRoundTrip(t *testing.T) {
	tbl, _, jsonlOut := runSmallGrid(t)
	lines := strings.Split(strings.TrimSpace(jsonlOut), "\n")
	if len(lines) != 1+len(tbl.Rows) {
		t.Fatalf("%d JSONL lines, want header + %d", len(lines), len(tbl.Rows))
	}
	var header struct {
		Schema     string   `json:"schema"`
		Name       string   `json:"name"`
		Dimensions []string `json:"dimensions"`
		GridSize   int      `json:"grid_size"`
		Points     int      `json:"points"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &header); err != nil {
		t.Fatal(err)
	}
	if header.Schema != "circuitsim-sweep/v1" || header.Name != "roundtrip" ||
		header.GridSize != 4 || header.Points != 4 ||
		strings.Join(header.Dimensions, ",") != "gamma,size" {
		t.Fatalf("header = %+v", header)
	}
	for i, line := range lines[1:] {
		var row sweep.JSONLRow
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatalf("line %d: %v", i+1, err)
		}
		want := tbl.Rows[i]
		if row.Point != want.Point || row.Arm != want.Arm ||
			row.Coords["gamma"] != want.Coords[0] || row.Coords["size"] != want.Coords[1] {
			t.Errorf("line %d = %+v, want point %d arm %s coords %v", i+1, row, want.Point, want.Arm, want.Coords)
		}
		if row.N != want.TTLB.N || row.TTLBP50 != want.TTLB.Median ||
			row.ExitCwnd != want.ExitCwndMean || row.TTLBMax != want.TTLB.Max {
			t.Errorf("line %d metrics = %+v, want %+v", i+1, row, want.ArmPoint)
		}
	}
}

// countingWriter counts Write calls and keeps the bytes. It has no
// WriteString method, so io.WriteString cannot bypass the count.
type countingWriter struct {
	writes int
	buf    bytes.Buffer
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.buf.Write(p)
}

// TestSinksWriteOneRecordPerCall pins the write granularity the file
// and HTTP paths rely on: the header and every (point, arm) row reach
// the writer in exactly one Write, so an unbuffered file never holds
// half a row and a stream never flushes a row in pieces.
func TestSinksWriteOneRecordPerCall(t *testing.T) {
	meta := sweep.Meta{Name: "writes", Dimensions: []string{"gamma", "policy"}, GridSize: 4, Points: 4}
	pr := sweep.PointResult{
		Point: sweep.Point{Index: 3, Coords: []string{"4", "a,b"}},
		Arms: []sweep.ArmPoint{
			{Arm: "circuitstart", ExitCwndMean: 36.7, Restarts: 2, MemHighWater: 1 << 20, Availability: 1},
			{Arm: `"quoted"`, Incomplete: 1},
		},
	}
	sinks := []struct {
		name string
		make func(io.Writer) sweep.Sink
	}{
		{"csv", func(w io.Writer) sweep.Sink { return sweep.NewCSVSink(w) }},
		{"jsonl", func(w io.Writer) sweep.Sink { return sweep.NewJSONLSink(w) }},
	}
	for _, sk := range sinks {
		var w countingWriter
		s := sk.make(&w)
		if err := s.Begin(meta); err != nil {
			t.Fatal(err)
		}
		if w.writes != 1 {
			t.Errorf("%s header took %d writes, want 1", sk.name, w.writes)
		}
		if err := s.Point(&pr); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		if want := 1 + len(pr.Arms); w.writes != want {
			t.Errorf("%s header + %d rows took %d writes, want %d", sk.name, len(pr.Arms), w.writes, want)
		}
		if lines := strings.Count(w.buf.String(), "\n"); lines != 1+len(pr.Arms) {
			t.Errorf("%s wrote %d lines, want %d", sk.name, lines, 1+len(pr.Arms))
		}
	}
}

// TestCSVSinkRowBytes pins a CSV row with a distinct value in every
// column — including quoting, float specials and integer extremes — to
// the bytes the boxed-cell encoder wrote, so a column can neither move
// nor change its rendering.
func TestCSVSinkRowBytes(t *testing.T) {
	ap := sweep.ArmPoint{
		Arm:        "circuitstart",
		TTLB:       metrics.Summary{N: 1, Mean: 2.5, Min: 0.125, P25: 1.0 / 3, Median: 4, P75: 5e-7, P90: 6e21, P99: math.Inf(1), Max: math.NaN()},
		Incomplete: 2, ExitCwndMean: 36.7, ExitTimeMedian: 0.75, Restarts: 3,
		UnknownDst: 4, Unroutable: 5, TrunkDrops: math.MaxUint64, MeanTrainLen: 7.5,
		Built: 8, TornDown: 9, Rebuilt: 10, Aborted: 11,
		Jain: 0.99, AdmissionRejected: 12, Killed: 13, SchedDrops: 14, MemHighWater: math.MinInt64,
		Stalls: 15, Recoveries: 16, Retries: 17, Abandoned: -18, TTRP50: 1.25, Availability: 1, GoodputKBps: 123456.789,
	}
	pr := sweep.PointResult{
		Point: sweep.Point{Index: 47, Coords: []string{"2", "8 Mbit/s", `a,"b"`}},
		Arms:  []sweep.ArmPoint{ap, {Arm: "backtap"}},
	}
	var buf bytes.Buffer
	s := sweep.NewCSVSink(&buf)
	if err := s.Begin(sweep.Meta{Dimensions: []string{"gamma", "bottleneck_bw", "x"}}); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := s.Point(&pr); err != nil {
		t.Fatal(err)
	}
	want := "47,2,8 Mbit/s,\"a,\"\"b\"\"\",circuitstart,1,2,2.5,0.125,0.33333333,4,5e-07,6e+21,+Inf,NaN,36.7,0.75,3,4,5,18446744073709551615,7.5,8,9,10,11,0.99,12,13,14,-9223372036854775808,15,16,17,-18,1.25,1,123456.79\n" +
		"47,2,8 Mbit/s,\"a,\"\"b\"\"\",backtap,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0\n"
	if buf.String() != want {
		t.Errorf("CSV rows =\n%q\nwant\n%q", buf.String(), want)
	}
}

// TestTableSummaries covers the best-arm and marginal queries on a grid
// where CircuitStart should win everywhere.
func TestTableSummaries(t *testing.T) {
	tbl, _, _ := runSmallGrid(t)
	best := tbl.BestArms()
	if len(best) != 4 {
		t.Fatalf("%d best arms, want 4", len(best))
	}
	for _, b := range best {
		if b.Arm == "" {
			t.Errorf("point %d has no winner", b.Point)
		}
	}
	marg, err := tbl.Marginal("gamma")
	if err != nil {
		t.Fatal(err)
	}
	// 2 gamma values × 2 arms.
	if len(marg) != 4 {
		t.Fatalf("%d marginal rows, want 4", len(marg))
	}
	wins := 0
	for _, m := range marg {
		if m.Points == 0 || m.MeanMedian <= 0 {
			t.Errorf("marginal %+v has no data", m)
		}
		wins += m.Wins
	}
	if wins != 4 {
		t.Errorf("marginal wins total %d, want 4 (one per point)", wins)
	}
	if _, err := tbl.Marginal("bogus"); err == nil {
		t.Error("unknown dimension accepted")
	}
	var text, margText bytes.Buffer
	if err := tbl.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(text.String(), "\n"); got != 1+len(tbl.Rows) {
		t.Errorf("WriteText rendered %d lines, want %d", got, 1+len(tbl.Rows))
	}
	if err := tbl.WriteMarginals(&margText); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(margText.String(), "marginal over gamma:") ||
		!strings.Contains(margText.String(), "marginal over size:") {
		t.Errorf("marginals missing a dimension:\n%s", margText.String())
	}
}

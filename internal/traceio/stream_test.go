package traceio

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestCSVStream(t *testing.T) {
	var buf bytes.Buffer
	s, err := NewCSVStream(&buf, "a", "b", "c")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.write("1", "2", "3"); err != nil {
		t.Fatal(err)
	}
	s.Field("x")
	s.Float(1.5)
	s.Int(7)
	if err := s.EndRecord(); err != nil {
		t.Fatal(err)
	}
	// Cells with commas, quotes and newlines must round-trip.
	if err := s.write(`he said "hi"`, "a,b", "two\nlines"); err != nil {
		t.Fatal(err)
	}
	if err := s.write("short"); err == nil {
		t.Fatal("row with wrong cell count accepted")
	}

	recs, err := csv.NewReader(bytes.NewReader(buf.Bytes())).ReadAll()
	if err != nil {
		t.Fatalf("stream output is not valid CSV: %v\n%s", err, buf.String())
	}
	want := [][]string{
		{"a", "b", "c"},
		{"1", "2", "3"},
		{"x", "1.5", "7"},
		{`he said "hi"`, "a,b", "two\nlines"},
	}
	if len(recs) != len(want) {
		t.Fatalf("%d records, want %d", len(recs), len(want))
	}
	for i := range want {
		if strings.Join(recs[i], "\x00") != strings.Join(want[i], "\x00") {
			t.Errorf("record %d = %q, want %q", i, recs[i], want[i])
		}
	}
}

// writeLog records each Write call separately.
type writeLog struct{ writes []string }

func (l *writeLog) Write(p []byte) (int, error) {
	l.writes = append(l.writes, string(p))
	return len(p), nil
}

// cell is one typed append, for table-driven records.
type cell func(*CSVStream)

func field(c string) cell  { return func(s *CSVStream) { s.Field(c) } }
func num(v int64) cell     { return func(s *CSVStream) { s.Int(v) } }
func unum(v uint64) cell   { return func(s *CSVStream) { s.Uint(v) } }
func float(v float64) cell { return func(s *CSVStream) { s.Float(v) } }

// TestCSVStreamRecordBytes pins the typed appenders to the bytes the
// boxed-cell row writer they replaced produced — quoting, empty cells,
// float specials and compaction, integer extremes — and checks each
// record is one Write.
func TestCSVStreamRecordBytes(t *testing.T) {
	cases := []struct {
		name  string
		cells []cell
		want  string
	}{
		{"plain", []cell{field("a"), field("b")}, "a,b\n"},
		{"comma", []cell{field("a,b"), field("c")}, "\"a,b\",c\n"},
		{"quote", []cell{field(`say "hi"`), field(`"`)}, "\"say \"\"hi\"\"\",\"\"\"\"\n"},
		{"cr", []cell{field("x\ry"), field("z")}, "\"x\ry\",z\n"},
		{"lf", []cell{field("x\ny"), field("z")}, "\"x\ny\",z\n"},
		{"crlf", []cell{field("x\r\ny")}, "\"x\r\ny\"\n"},
		{"non-ascii quoted", []cell{field("α,β"), field("γ")}, "\"α,β\",γ\n"},
		{"empty cells", []cell{field(""), field(""), field("")}, ",,\n"},
		{"one empty cell", []cell{field("")}, "\n"},
		{"float", []cell{float(1.5), float(0), float(-2.25e-9), float(123456789), float(1.0 / 3), float(0.1)},
			"1.5,0,-2.25e-09,1.2345679e+08,0.33333333,0.1\n"},
		{"float specials", []cell{float(math.NaN()), float(math.Inf(1)), float(math.Inf(-1)), float(math.Copysign(0, -1))},
			"NaN,+Inf,-Inf,-0\n"},
		{"float extremes", []cell{float(1e21), float(1e20), float(5e-324), float(math.MaxFloat64)},
			"1e+21,1e+20,4.9406565e-324,1.7976931e+308\n"},
		{"int", []cell{num(0), num(-7), num(math.MinInt64), num(math.MaxInt64)},
			"0,-7,-9223372036854775808,9223372036854775807\n"},
		{"uint", []cell{unum(0), unum(math.MaxUint64)}, "0,18446744073709551615\n"},
		{"mixed", []cell{num(3), field("4"), field("a,b"), field("circuitstart"), unum(2), float(36.7)},
			"3,4,\"a,b\",circuitstart,2,36.7\n"},
	}
	for _, tc := range cases {
		var log writeLog
		s, err := NewCSVStreamNoHeader(&log, len(tc.cells))
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range tc.cells {
			c(s)
		}
		if err := s.EndRecord(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := strings.Join(log.writes, ""); got != tc.want {
			t.Errorf("%s: record = %q, want %q", tc.name, got, tc.want)
		}
		if len(log.writes) != 1 {
			t.Errorf("%s: record took %d writes, want 1", tc.name, len(log.writes))
		}
	}

	// The header and string rows share the quoting and the single write.
	var log writeLog
	s, err := NewCSVStream(&log, "point", "a,b", `q"`)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.write("", "x\ny", "plain"); err != nil {
		t.Fatal(err)
	}
	want := []string{"point,\"a,b\",\"q\"\"\"\n", ",\"x\ny\",plain\n"}
	if strings.Join(log.writes, "|") != strings.Join(want, "|") {
		t.Errorf("writes = %q, want %q", log.writes, want)
	}
}

// TestCSVStreamCellCountMismatch checks that a typed record with too
// few or too many cells is refused without writing anything, and that
// the refused cells do not leak into the next record.
func TestCSVStreamCellCountMismatch(t *testing.T) {
	var log writeLog
	s, err := NewCSVStreamNoHeader(&log, 2)
	if err != nil {
		t.Fatal(err)
	}
	s.Int(1)
	if err := s.EndRecord(); err == nil {
		t.Error("record with 1 of 2 cells accepted")
	}
	s.Int(1)
	s.Uint(2)
	s.Float(3)
	if err := s.EndRecord(); err == nil {
		t.Error("record with 3 of 2 cells accepted")
	}
	if err := s.write("only"); err == nil {
		t.Error("string row with 1 of 2 cells accepted")
	}
	if len(log.writes) != 0 {
		t.Fatalf("refused records wrote %q", log.writes)
	}
	s.Field("a")
	s.Int(-1)
	if err := s.EndRecord(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"a,-1\n"}; strings.Join(log.writes, "|") != strings.Join(want, "|") {
		t.Errorf("writes after refusals = %q, want %q", log.writes, want)
	}
}

func TestCSVStreamNoColumns(t *testing.T) {
	if _, err := NewCSVStream(&bytes.Buffer{}); err == nil {
		t.Fatal("stream without columns accepted")
	}
}

func TestJSONLStream(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLStream(&buf)
	type rec struct {
		Name string  `json:"name"`
		V    float64 `json:"v"`
	}
	if err := s.Write(rec{"a", 1.25}); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(rec{"b", -3}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d lines, want 2", len(lines))
	}
	var got rec
	if err := json.Unmarshal([]byte(lines[1]), &got); err != nil {
		t.Fatal(err)
	}
	if got.Name != "b" || got.V != -3 {
		t.Fatalf("line 2 = %+v", got)
	}
}

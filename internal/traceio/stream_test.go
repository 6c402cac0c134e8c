package traceio

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
)

func TestCSVStream(t *testing.T) {
	var buf bytes.Buffer
	s, err := NewCSVStream(&buf, "a", "b", "c")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Write("1", "2", "3"); err != nil {
		t.Fatal(err)
	}
	if err := s.Writef("x", 1.5, 7); err != nil {
		t.Fatal(err)
	}
	// Cells with commas, quotes and newlines must round-trip.
	if err := s.Write(`he said "hi"`, "a,b", "two\nlines"); err != nil {
		t.Fatal(err)
	}
	if err := s.Write("short"); err == nil {
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

// TestCSVStreamRecordBytes pins the record encoder to the bytes the
// cell-by-cell writer produced — quoting, empty cells and every value
// type Writef formats itself — and checks each record is one Write.
func TestCSVStreamRecordBytes(t *testing.T) {
	type pair struct{ A, B string }
	cases := []struct {
		name  string
		cells []any
		want  string
	}{
		{"plain", []any{"a", "b"}, "a,b\n"},
		{"comma", []any{"a,b", "c"}, "\"a,b\",c\n"},
		{"quote", []any{`say "hi"`, `"`}, "\"say \"\"hi\"\"\",\"\"\"\"\n"},
		{"cr", []any{"x\ry", "z"}, "\"x\ry\",z\n"},
		{"lf", []any{"x\ny", "z"}, "\"x\ny\",z\n"},
		{"crlf", []any{"x\r\ny"}, "\"x\r\ny\"\n"},
		{"empty cells", []any{"", "", ""}, ",,\n"},
		{"one empty cell", []any{""}, "\n"},
		{"float64", []any{1.5, 0.0, -2.25e-9, 123456789.0, 1.0 / 3}, "1.5,0,-2.25e-09,1.2345679e+08,0.33333333\n"},
		{"float64 specials", []any{math.NaN(), math.Inf(1), math.Inf(-1)}, "NaN,+Inf,-Inf\n"},
		{"int", []any{0, -7, math.MaxInt64}, "0,-7,9223372036854775807\n"},
		{"int64", []any{int64(math.MinInt64), int64(42)}, "-9223372036854775808,42\n"},
		{"uint64", []any{uint64(0), uint64(math.MaxUint64)}, "0,18446744073709551615\n"},
		{"fallback", []any{true, float32(1.5), int32(-3), uint8(9), nil, 1500 * time.Millisecond}, "true,1.5,-3,9,<nil>,1.5s\n"},
		{"fallback quoted", []any{pair{"x,y", "z"}, []string{"a", `"b"`}}, "\"{x,y z}\",\"[a \"\"b\"\"]\"\n"},
	}
	for _, tc := range cases {
		var log writeLog
		s, err := NewCSVStreamNoHeader(&log, len(tc.cells))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Writef(tc.cells...); err != nil {
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
	if err := s.Write("", "x\ny", "plain"); err != nil {
		t.Fatal(err)
	}
	want := []string{"point,\"a,b\",\"q\"\"\"\n", ",\"x\ny\",plain\n"}
	if strings.Join(log.writes, "|") != strings.Join(want, "|") {
		t.Errorf("writes = %q, want %q", log.writes, want)
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

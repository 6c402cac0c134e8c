package traceio

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// CSVStream writes CSV rows incrementally — the streaming counterpart
// of Table for producers (like the sweep engine) that emit results as
// they become available instead of accumulating them first. The header
// fixes the column count; every row must match it. Each record, header
// included, is encoded into a buffer the stream reuses and reaches the
// writer in a single Write, so a reader of the file or stream sees
// whole records only and an unbuffered writer pays one call per row.
type CSVStream struct {
	w    io.Writer
	cols int
	rec  []byte
}

// NewCSVStream writes the header row and returns a stream bound to it.
func NewCSVStream(w io.Writer, header ...string) (*CSVStream, error) {
	if len(header) == 0 {
		return nil, fmt.Errorf("traceio: CSV stream without columns")
	}
	s := &CSVStream{w: w, cols: len(header)}
	return s, s.Write(header...)
}

// NewCSVStreamNoHeader returns a stream that writes no header row —
// for appending rows to a file that already carries one.
func NewCSVStreamNoHeader(w io.Writer, columns int) (*CSVStream, error) {
	if columns <= 0 {
		return nil, fmt.Errorf("traceio: CSV stream without columns")
	}
	return &CSVStream{w: w, cols: columns}, nil
}

// Write appends one row. The cell count must match the header.
func (s *CSVStream) Write(cells ...string) error {
	if err := s.check(len(cells)); err != nil {
		return err
	}
	rec := s.rec[:0]
	for i, c := range cells {
		if i > 0 {
			rec = append(rec, ',')
		}
		rec = appendField(rec, c)
	}
	return s.emit(rec)
}

// Writef appends a row of formatted values with Table.AddRowf's rules:
// strings pass through, float64s are compacted, everything else uses %v.
func (s *CSVStream) Writef(cells ...any) error {
	if err := s.check(len(cells)); err != nil {
		return err
	}
	rec := s.rec[:0]
	for i, c := range cells {
		if i > 0 {
			rec = append(rec, ',')
		}
		rec = appendCell(rec, c)
	}
	return s.emit(rec)
}

func (s *CSVStream) check(cells int) error {
	if cells != s.cols {
		return fmt.Errorf("traceio: row with %d cells in CSV stream with %d columns", cells, s.cols)
	}
	return nil
}

// emit terminates the record and hands it to the writer in one call.
func (s *CSVStream) emit(rec []byte) error {
	rec = append(rec, '\n')
	s.rec = rec
	_, err := s.w.Write(rec)
	return err
}

// appendCell renders one Writef value. Numbers never need quoting, so
// only strings, and the %v fallback, go through appendField.
func appendCell(rec []byte, c any) []byte {
	switch v := c.(type) {
	case string:
		return appendField(rec, v)
	case float64:
		return appendFloat(rec, v)
	case int:
		return strconv.AppendInt(rec, int64(v), 10)
	case int64:
		return strconv.AppendInt(rec, v, 10)
	case uint64:
		return strconv.AppendUint(rec, v, 10)
	default:
		return appendField(rec, fmt.Sprint(v))
	}
}

// appendField appends one cell, quoted when it holds a comma, a quote
// or a line break — the cells the simulator emits never need quoting,
// but a comma or quote in a label must not corrupt the file.
func appendField(rec []byte, c string) []byte {
	if !strings.ContainsAny(c, ",\"\r\n") {
		return append(rec, c...)
	}
	rec = append(rec, '"')
	for i := 0; i < len(c); i++ {
		if c[i] == '"' {
			rec = append(rec, '"')
		}
		rec = append(rec, c[i])
	}
	return append(rec, '"')
}

// JSONLStream writes one compact JSON value per line (JSON Lines) —
// the machine-readable streaming format for sweep results and similar
// record sequences.
type JSONLStream struct {
	enc *json.Encoder
}

// NewJSONLStream returns a stream writing to w.
func NewJSONLStream(w io.Writer) *JSONLStream {
	return &JSONLStream{enc: json.NewEncoder(w)}
}

// Write appends one value as a single JSON line.
func (s *JSONLStream) Write(v any) error { return s.enc.Encode(v) }

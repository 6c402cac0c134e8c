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
//
// A record is either a Write of string cells or a sequence of typed
// appends (Field, Int, Uint, Float) closed by EndRecord. The typed form
// encodes numbers straight into the buffer, without boxing a row into
// []any.
type CSVStream struct {
	w     io.Writer
	cols  int
	rec   []byte
	cells int // cells appended to the pending record
}

// NewCSVStream writes the header row and returns a stream bound to it.
func NewCSVStream(w io.Writer, header ...string) (*CSVStream, error) {
	if len(header) == 0 {
		return nil, fmt.Errorf("traceio: CSV stream without columns")
	}
	s := &CSVStream{w: w, cols: len(header)}
	return s, s.write(header...)
}

// NewCSVStreamNoHeader returns a stream that writes no header row —
// for appending rows to a file that already carries one.
func NewCSVStreamNoHeader(w io.Writer, columns int) (*CSVStream, error) {
	if columns <= 0 {
		return nil, fmt.Errorf("traceio: CSV stream without columns")
	}
	return &CSVStream{w: w, cols: columns}, nil
}

// write appends one row of string cells. The cell count must match the
// header.
func (s *CSVStream) write(cells ...string) error {
	for _, c := range cells {
		s.Field(c)
	}
	return s.EndRecord()
}

// Field appends a string cell to the pending record, quoted when it
// needs to be.
func (s *CSVStream) Field(c string) { s.rec = appendField(s.sep(), c) }

// Int appends an integer cell to the pending record.
func (s *CSVStream) Int(v int64) { s.rec = strconv.AppendInt(s.sep(), v, 10) }

// Uint appends an unsigned integer cell to the pending record.
func (s *CSVStream) Uint(v uint64) { s.rec = strconv.AppendUint(s.sep(), v, 10) }

// Float appends a float cell to the pending record, compacted as
// Table.AddRowf renders it. Numbers never need quoting.
func (s *CSVStream) Float(v float64) { s.rec = appendFloat(s.sep(), v) }

// sep counts the next cell and returns the record buffer with its
// separator in place.
func (s *CSVStream) sep() []byte {
	s.cells++
	if s.cells > 1 {
		return append(s.rec, ',')
	}
	return s.rec
}

// EndRecord terminates the pending record and hands it to the writer in
// one call. A record whose cell count does not match the header is an
// error and is discarded without writing anything.
func (s *CSVStream) EndRecord() error {
	rec, cells := append(s.rec, '\n'), s.cells
	s.rec, s.cells = rec[:0], 0
	if cells != s.cols {
		return fmt.Errorf("traceio: row with %d cells in CSV stream with %d columns", cells, s.cols)
	}
	_, err := s.w.Write(rec)
	return err
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

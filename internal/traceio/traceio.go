// Package traceio writes experiment results in formats matching the
// paper's figures: CSV with a header row (directly loadable by gnuplot,
// pandas, or R) and aligned plain-text tables for terminal output.
//
// Writers take io.Writer so experiments can stream to files, buffers in
// tests, or stdout from the CLI.
package traceio

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"text/tabwriter"

	"circuitstart/internal/metrics"
)

// WriteSeriesCSV writes one time series as (time_ms, value) rows. The
// header names the value column after the series.
func WriteSeriesCSV(w io.Writer, s *metrics.Series) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"time_ms", s.Name()}); err != nil {
		return err
	}
	for _, p := range s.Points() {
		rec := []string{
			formatFloat(p.At.Milliseconds()),
			formatFloat(p.Value),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCDFCSV writes one or more empirical CDFs as step plots. Columns
// are (value, p) pairs per distribution; distributions of different
// lengths leave trailing cells empty.
func WriteCDFCSV(w io.Writer, dists ...*metrics.Distribution) error {
	if len(dists) == 0 {
		return fmt.Errorf("traceio: no distributions")
	}
	header := make([]string, 0, 2*len(dists))
	cdfs := make([][]metrics.CDFPoint, len(dists))
	maxLen := 0
	for i, d := range dists {
		header = append(header, d.Name(), d.Name()+"_p")
		cdfs[i] = d.CDF()
		if len(cdfs[i]) > maxLen {
			maxLen = len(cdfs[i])
		}
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, 2*len(dists))
	for r := 0; r < maxLen; r++ {
		for i := range dists {
			if r < len(cdfs[i]) {
				row[2*i] = formatFloat(cdfs[i][r].Value)
				row[2*i+1] = formatFloat(cdfs[i][r].P)
			} else {
				row[2*i] = ""
				row[2*i+1] = ""
			}
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteSummaryTable writes aligned summary rows for several
// distributions — the terminal-friendly version of a results table.
func WriteSummaryTable(w io.Writer, dists ...*metrics.Distribution) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "name\tn\tmean\tsd\tmin\tp25\tp50\tp75\tp90\tp99\tmax")
	for _, d := range dists {
		s := d.Summarize()
		fmt.Fprintf(tw, "%s\t%d\t%.4g\t%.4g\t%.4g\t%.4g\t%.4g\t%.4g\t%.4g\t%.4g\t%.4g\n",
			s.Name, s.N, s.Mean, s.StdDev, s.Min, s.P25, s.Median, s.P75, s.P90, s.P99, s.Max)
	}
	return tw.Flush()
}

// Table is a generic aligned text table for experiment reports.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	if len(header) == 0 {
		panic("traceio: table without columns")
	}
	return &Table{header: header}
}

// addRow appends a row. The cell count must match the header.
func (t *Table) addRow(cells ...string) {
	if len(cells) != len(t.header) {
		panic(fmt.Sprintf("traceio: row with %d cells in table with %d columns", len(cells), len(t.header)))
	}
	t.rows = append(t.rows, cells)
}

// AddRowf appends a row of formatted values: strings pass through,
// float64s are compacted, everything else uses %v.
func (t *Table) AddRowf(cells ...any) {
	out := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			out[i] = v
		case float64:
			out[i] = formatFloat(v)
		default:
			out[i] = fmt.Sprintf("%v", v)
		}
	}
	t.addRow(out...)
}

// WriteText writes the table with aligned columns.
func (t *Table) WriteText(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	writeTabRow(tw, t.header)
	for _, r := range t.rows {
		writeTabRow(tw, r)
	}
	return tw.Flush()
}

func writeTabRow(w io.Writer, cells []string) {
	for i, c := range cells {
		if i > 0 {
			fmt.Fprint(w, "\t")
		}
		fmt.Fprint(w, c)
	}
	fmt.Fprintln(w)
}

// formatFloat renders a float compactly (no trailing zeros, full
// precision where needed).
func formatFloat(v float64) string {
	return string(appendFloat(nil, v))
}

// appendFloat is formatFloat's allocation-free form.
func appendFloat(b []byte, v float64) []byte {
	return strconv.AppendFloat(b, v, 'g', 8, 64)
}

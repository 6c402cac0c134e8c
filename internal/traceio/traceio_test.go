package traceio

import (
	"bytes"
	"encoding/csv"
	"strings"
	"testing"

	"circuitstart/internal/metrics"
	"circuitstart/internal/sim"
)

func ms(v int) sim.Time { return sim.Time(v) * sim.Millisecond }

func parseCSV(t *testing.T, buf *bytes.Buffer) [][]string {
	t.Helper()
	rows, err := csv.NewReader(buf).ReadAll()
	if err != nil {
		t.Fatalf("output is not valid CSV: %v", err)
	}
	return rows
}

func TestWriteSeriesCSV(t *testing.T) {
	s := metrics.NewSeries("cwnd_kb")
	s.Record(ms(0), 1)
	s.Record(ms(10), 2.5)

	var buf bytes.Buffer
	if err := WriteSeriesCSV(&buf, s); err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, &buf)
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	if rows[0][0] != "time_ms" || rows[0][1] != "cwnd_kb" {
		t.Fatalf("header = %v", rows[0])
	}
	if rows[1][0] != "0" || rows[1][1] != "1" {
		t.Fatalf("row 1 = %v", rows[1])
	}
	if rows[2][0] != "10" || rows[2][1] != "2.5" {
		t.Fatalf("row 2 = %v", rows[2])
	}
}

func TestWriteCDFCSV(t *testing.T) {
	with := metrics.NewDistribution("with_cs")
	for _, v := range []float64{1, 2} {
		with.Add(v)
	}
	without := metrics.NewDistribution("without_cs")
	for _, v := range []float64{1.5, 2.5, 3.5} {
		without.Add(v)
	}
	var buf bytes.Buffer
	if err := WriteCDFCSV(&buf, with, without); err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, &buf)
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	if rows[0][0] != "with_cs" || rows[0][3] != "without_cs_p" {
		t.Fatalf("header = %v", rows[0])
	}
	// Shorter distribution leaves trailing cells empty.
	if rows[3][0] != "" || rows[3][1] != "" {
		t.Fatalf("short-dist padding missing: %v", rows[3])
	}
	if rows[3][2] != "3.5" || rows[3][3] != "1" {
		t.Fatalf("long dist tail = %v", rows[3])
	}
}

func TestWriteCDFCSVEmptyArgs(t *testing.T) {
	if err := WriteCDFCSV(&bytes.Buffer{}); err == nil {
		t.Fatal("no error for zero distributions")
	}
}

func TestWriteSummaryTable(t *testing.T) {
	d := metrics.NewDistribution("ttlb_s")
	for i := 1; i <= 10; i++ {
		d.Add(float64(i))
	}
	var buf bytes.Buffer
	if err := WriteSummaryTable(&buf, d); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "ttlb_s") || !strings.Contains(out, "p90") {
		t.Fatalf("summary table missing fields:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d, want 2", len(lines))
	}
}

func TestTableText(t *testing.T) {
	tb := NewTable("policy", "ttlb_s", "cells")
	tb.addRow("circuitstart", "1.2", "100")
	tb.AddRowf("slowstart", 1.75, 100)

	var txt bytes.Buffer
	if err := tb.WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt.String(), "circuitstart") || !strings.Contains(txt.String(), "1.75") {
		t.Fatalf("text table:\n%s", txt.String())
	}
}

func TestTablePanics(t *testing.T) {
	t.Run("no columns", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("no panic")
			}
		}()
		NewTable()
	})
	t.Run("cell mismatch", func(t *testing.T) {
		tb := NewTable("a", "b")
		defer func() {
			if recover() == nil {
				t.Fatal("no panic")
			}
		}()
		tb.addRow("only-one")
	})
}

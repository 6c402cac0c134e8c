package metrics

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestDistributionBasics(t *testing.T) {
	d := NewDistribution("ttlb")
	if d.Name() != "ttlb" {
		t.Fatalf("Name = %q", d.Name())
	}
	if d.Len() != 0 || d.Mean() != 0 || d.stdDev() != 0 {
		t.Fatal("empty distribution not zeroed")
	}
	for _, v := range []float64{4, 1, 3, 2} {
		d.Add(v)
	}
	if d.Len() != 4 {
		t.Fatalf("Len = %d", d.Len())
	}
	if d.Mean() != 2.5 {
		t.Fatalf("Mean = %v, want 2.5", d.Mean())
	}
	if got := d.minimum(); got != 1 {
		t.Fatalf("Min = %v", got)
	}
	if got := d.maximum(); got != 4 {
		t.Fatalf("Max = %v", got)
	}
	wantSD := math.Sqrt((2.25 + 0.25 + 0.25 + 2.25) / 4)
	if math.Abs(d.stdDev()-wantSD) > 1e-12 {
		t.Fatalf("StdDev = %v, want %v", d.stdDev(), wantSD)
	}
}

func TestDistributionAddNaNPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add(NaN) did not panic")
		}
	}()
	NewDistribution("x").Add(math.NaN())
}

func TestQuantileInterpolation(t *testing.T) {
	d := NewDistribution("q")
	for _, v := range []float64{10, 20, 30, 40} {
		d.Add(v)
	}
	cases := []struct{ q, want float64 }{
		{0, 10}, {1, 40}, {0.5, 25}, {0.25, 17.5}, {1.0 / 3.0, 20},
	}
	for _, c := range cases {
		if got := d.Quantile(c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if d.Median() != 25 {
		t.Errorf("Median = %v", d.Median())
	}
}

func TestQuantileSingleSample(t *testing.T) {
	d := NewDistribution("one")
	d.Add(7)
	for _, q := range []float64{0, 0.3, 0.5, 1} {
		if got := d.Quantile(q); got != 7 {
			t.Errorf("Quantile(%v) = %v, want 7", q, got)
		}
	}
}

func TestQuantilePanics(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("no panic")
			}
		}()
		NewDistribution("e").Quantile(0.5)
	})
	t.Run("range", func(t *testing.T) {
		d := NewDistribution("r")
		d.Add(1)
		defer func() {
			if recover() == nil {
				t.Fatal("no panic")
			}
		}()
		d.Quantile(1.5)
	})
}

func TestCDFSteps(t *testing.T) {
	d := NewDistribution("cdf")
	for _, v := range []float64{3, 1, 2} {
		d.Add(v)
	}
	pts := d.CDF()
	if len(pts) != 3 {
		t.Fatalf("CDF len = %d", len(pts))
	}
	wantV := []float64{1, 2, 3}
	wantP := []float64{1.0 / 3, 2.0 / 3, 1}
	for i := range pts {
		if pts[i].Value != wantV[i] || math.Abs(pts[i].P-wantP[i]) > 1e-12 {
			t.Errorf("CDF[%d] = %+v", i, pts[i])
		}
	}
}

func TestSummarize(t *testing.T) {
	d := NewDistribution("s")
	for i := 1; i <= 100; i++ {
		d.Add(float64(i))
	}
	s := d.Summarize()
	if s.N != 100 || s.Min != 1 || s.Max != 100 {
		t.Fatalf("Summary = %+v", s)
	}
	if math.Abs(s.Mean-50.5) > 1e-9 || math.Abs(s.Median-50.5) > 1e-9 {
		t.Fatalf("Mean/Median = %v/%v", s.Mean, s.Median)
	}
	if s.P90 <= s.P75 || s.P99 <= s.P90 {
		t.Fatalf("quantiles not ordered: %+v", s)
	}
	if s.String() == "" {
		t.Fatal("empty String()")
	}
	empty := NewDistribution("e").Summarize()
	if empty.N != 0 || empty.Max != 0 {
		t.Fatalf("empty Summary = %+v", empty)
	}
}

// Property: quantiles are monotone in q and bounded by [Min, Max].
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float32, a, b uint8) bool {
		if len(raw) == 0 {
			return true
		}
		d := NewDistribution("p")
		for _, v := range raw {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				continue
			}
			d.Add(float64(v))
		}
		if d.Len() == 0 {
			return true
		}
		qa := float64(a) / 255
		qb := float64(b) / 255
		if qa > qb {
			qa, qb = qb, qa
		}
		va, vb := d.Quantile(qa), d.Quantile(qb)
		return va <= vb && va >= d.minimum() && vb <= d.maximum()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: Sorted returns a permutation of the input in ascending order.
func TestSortedProperty(t *testing.T) {
	f := func(raw []float32) bool {
		d := NewDistribution("p")
		in := make([]float64, 0, len(raw))
		for _, v := range raw {
			if math.IsNaN(float64(v)) {
				continue
			}
			d.Add(float64(v))
			in = append(in, float64(v))
		}
		got := d.Sorted()
		if !sort.Float64sAreSorted(got) {
			return false
		}
		sort.Float64s(in)
		if len(in) != len(got) {
			return false
		}
		for i := range in {
			if in[i] != got[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

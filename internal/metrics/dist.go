package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Distribution accumulates scalar samples and answers quantile and CDF
// queries over them. The zero value is ready to use.
type Distribution struct {
	name    string
	samples []float64
	sorted  bool
}

// NewDistribution returns an empty distribution with a diagnostic name.
func NewDistribution(name string) *Distribution { return &Distribution{name: name} }

// Name returns the distribution's name.
func (d *Distribution) Name() string { return d.name }

// Add records one sample. NaN is rejected: it silently poisons every
// downstream statistic.
func (d *Distribution) Add(v float64) {
	if math.IsNaN(v) {
		panic(fmt.Sprintf("metrics: NaN sample in distribution %q", d.name))
	}
	d.samples = append(d.samples, v)
	d.sorted = false
}

// Len returns the sample count.
func (d *Distribution) Len() int { return len(d.samples) }

func (d *Distribution) ensureSorted() {
	if !d.sorted {
		sort.Float64s(d.samples)
		d.sorted = true
	}
}

// Sorted returns the samples in ascending order. The slice is shared;
// callers must not mutate it.
func (d *Distribution) Sorted() []float64 {
	d.ensureSorted()
	return d.samples
}

// Mean returns the arithmetic mean, or 0 for an empty distribution.
func (d *Distribution) Mean() float64 {
	if len(d.samples) == 0 {
		return 0
	}
	var sum float64
	for _, v := range d.samples {
		sum += v
	}
	return sum / float64(len(d.samples))
}

// StdDev returns the population standard deviation, or 0 with fewer than
// two samples.
func (d *Distribution) StdDev() float64 {
	n := len(d.samples)
	if n < 2 {
		return 0
	}
	m := d.Mean()
	var ss float64
	for _, v := range d.samples {
		dv := v - m
		// float64(…) rounds the product unfused (TestNoFusedMultiplyAdd).
		ss += float64(dv * dv)
	}
	return math.Sqrt(ss / float64(n))
}

// Min returns the smallest sample, or 0 when empty.
func (d *Distribution) Min() float64 {
	if len(d.samples) == 0 {
		return 0
	}
	d.ensureSorted()
	return d.samples[0]
}

// Max returns the largest sample, or 0 when empty.
func (d *Distribution) Max() float64 {
	if len(d.samples) == 0 {
		return 0
	}
	d.ensureSorted()
	return d.samples[len(d.samples)-1]
}

// Quantile returns the q-th quantile (0 <= q <= 1) under linear
// interpolation between order statistics (type-7, the numpy default).
// It panics on an empty distribution or q outside [0, 1].
func (d *Distribution) Quantile(q float64) float64 {
	if len(d.samples) == 0 {
		panic(fmt.Sprintf("metrics: quantile of empty distribution %q", d.name))
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("metrics: quantile %v outside [0,1]", q))
	}
	d.ensureSorted()
	if len(d.samples) == 1 {
		return d.samples[0]
	}
	// Each float64(…) rounds a product unfused (TestNoFusedMultiplyAdd).
	pos := float64(q * float64(len(d.samples)-1))
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return d.samples[lo]
	}
	frac := pos - float64(lo)
	return float64(d.samples[lo]*(1-frac)) + float64(d.samples[hi]*frac)
}

// Median returns the 0.5 quantile.
func (d *Distribution) Median() float64 { return d.Quantile(0.5) }

// CDFAt returns the empirical cumulative probability P(X <= x).
func (d *Distribution) CDFAt(x float64) float64 {
	if len(d.samples) == 0 {
		return 0
	}
	d.ensureSorted()
	i := sort.SearchFloat64s(d.samples, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(d.samples))
}

// CDFPoint is one step of an empirical CDF.
type CDFPoint struct {
	Value float64 // sample value (x axis)
	P     float64 // cumulative probability (y axis)
}

// CDF returns the full empirical CDF as (value, probability) steps, one
// per sample, suitable for plotting against the paper's Figure 1 lower
// panel.
func (d *Distribution) CDF() []CDFPoint {
	d.ensureSorted()
	out := make([]CDFPoint, len(d.samples))
	n := float64(len(d.samples))
	for i, v := range d.samples {
		out[i] = CDFPoint{Value: v, P: float64(i+1) / n}
	}
	return out
}

// Summary is a compact five-number-plus description of a distribution.
type Summary struct {
	Name   string
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	P25    float64
	Median float64
	P75    float64
	P90    float64
	P99    float64
	Max    float64
}

// Summarize computes a Summary. Quantile fields are zero when empty.
func (d *Distribution) Summarize() Summary {
	s := Summary{Name: d.name, N: d.Len(), Mean: d.Mean(), StdDev: d.StdDev()}
	if d.Len() == 0 {
		return s
	}
	s.Min = d.Min()
	s.P25 = d.Quantile(0.25)
	s.Median = d.Median()
	s.P75 = d.Quantile(0.75)
	s.P90 = d.Quantile(0.90)
	s.P99 = d.Quantile(0.99)
	s.Max = d.Max()
	return s
}

func (s Summary) String() string {
	return fmt.Sprintf("%s: n=%d mean=%.4g sd=%.4g min=%.4g p50=%.4g p90=%.4g max=%.4g",
		s.Name, s.N, s.Mean, s.StdDev, s.Min, s.Median, s.P90, s.Max)
}

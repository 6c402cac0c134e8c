package main

import (
	"runtime/metrics"
	"sort"
)

// median returns the middle of xs (mean of the two middles when even).
// It sorts a copy.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailBeyond is how many samples must lie beyond a reported percentile,
// and tailMinSamples how many samples a tail needs at all: with fewer,
// the percentile that keeps tailBeyond samples beyond it lies below
// p95, which is not a tail, and measured on serve_cold (p81 of 54) it
// wandered three times as much from run to run as the median did.
const (
	tailBeyond     = 10
	tailMinSamples = 20 * tailBeyond
)

// tail picks the highest percentile the sample supports: the largest
// value with at least tailBeyond samples beyond it, and the share of
// samples at or below it. A sample too small for a tail gets its
// median back (pct 50).
func tail(xs []float64) (value, pct float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n < tailMinSamples {
		return median(s), 50
	}
	i := n - 1 - tailBeyond
	return s[i], 100 * float64(i+1) / float64(n)
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method),
// so -compare reports the same spread the acceptance check uses.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / med
}

// allocatedBytes is the process's cumulative heap allocation, read
// without stopping the world (MemStats.TotalAlloc by another route).
func allocatedBytes() uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}

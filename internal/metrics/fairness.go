package metrics

// JainIndex returns Jain's fairness index over the samples:
// (Σx)² / (n·Σx²). It is 1 when every sample is equal, 1/n when one
// sample dwarfs the rest, and scale-invariant in between — the
// standard single-number fairness summary for per-flow allocations.
// The overload experiments apply it to per-circuit TTLB, where an
// index near 1 means interactive and bulk circuits finished in
// comparable time relative to each other.
//
// An empty sample set (or one summing to zero) returns 0: no
// allocation happened, so no fairness claim can be made.
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		// float64(…) rounds the product unfused (TestNoFusedMultiplyAdd).
		sumSq += float64(x * x)
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// JainIndex returns Jain's fairness index over the distribution's
// samples (per-circuit TTLB aggregation: add one sample per circuit,
// then summarize).
func (d *Distribution) JainIndex() float64 { return JainIndex(d.samples) }

package sim

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
)

// RNG is a deterministic random stream. Every stochastic component in the
// simulator (workload generators, relay bandwidth sampling, jitter) draws
// from its own named stream derived from a single experiment seed, so
// adding a new consumer of randomness does not perturb existing ones.
type RNG struct {
	*rand.Rand
	name string
}

// NewRNG derives an independent stream from seed and a component name.
// The same (seed, name) pair always yields the same stream.
func NewRNG(seed int64, name string) *RNG {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, name)
	return &RNG{
		Rand: rand.New(rand.NewSource(int64(h.Sum64()))), //nolint:gosec // simulation, not crypto
		name: name,
	}
}

// Name returns the stream's component name.
func (r *RNG) Name() string { return r.name }

// Uniform returns a sample from U[lo, hi).
func (r *RNG) Uniform(lo, hi float64) float64 {
	// float64(…) rounds the product unfused (TestNoFusedMultiplyAdd).
	return lo + float64(r.Float64()*(hi-lo))
}

// LogNormal returns a sample from the log-normal distribution with the
// given location (mu) and scale (sigma) of the underlying normal. Tor
// relay bandwidths are heavy-tailed; log-normal is the standard synthetic
// stand-in.
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	// float64(…) rounds the product unfused (TestNoFusedMultiplyAdd).
	return math.Exp(mu + float64(sigma*r.NormFloat64()))
}

// Pareto returns a sample from the Pareto distribution with the given
// minimum value and tail index alpha.
func (r *RNG) Pareto(xm, alpha float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}

// Exponential returns a sample from Exp(1/mean).
func (r *RNG) Exponential(mean float64) float64 {
	return r.ExpFloat64() * mean
}

// Bernoulli reports true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

package workload

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"circuitstart/internal/sim"
	"circuitstart/internal/units"
)

// SizeDistKind selects a transfer-size distribution family.
type SizeDistKind string

const (
	// SizeFixed gives every circuit the same transfer size — the
	// byte-identical legacy path (no RNG stream is consumed).
	SizeFixed SizeDistKind = "fixed"
	// SizeLogNormal draws sizes from a lognormal with the given median
	// and log-space sigma — the classic heavy-ish web-object model.
	SizeLogNormal SizeDistKind = "lognormal"
	// SizePareto draws sizes from a bounded Pareto on [Size, Max] with
	// shape Alpha — the heavy-tailed flow-size model (most transfers
	// small, a few elephants).
	SizePareto SizeDistKind = "pareto"
)

// SizeDist describes a per-circuit transfer-size distribution. Samples
// are drawn once per scenario from a dedicated seeded stream
// ("workload-sizes"), so a given (seed, count, dist) triple always
// yields the same sizes regardless of workers, arms or replications.
type SizeDist struct {
	Kind SizeDistKind
	// Size is the fixed size (SizeFixed), the median (SizeLogNormal)
	// or the lower bound / scale (SizePareto).
	Size units.DataSize
	// Sigma is the log-space standard deviation (SizeLogNormal).
	Sigma float64
	// Alpha is the tail shape (SizePareto); smaller = heavier tail.
	Alpha float64
	// Min and Max clamp every sample (0 = unclamped). SizePareto
	// requires Max: it is the distribution's upper bound.
	Min, Max units.DataSize
}

// Validate rejects malformed distributions, naming the offending field.
func (d SizeDist) Validate() error {
	if d.Size <= 0 {
		return fmt.Errorf("workload: size dist %q: size %d must be positive", d.Kind, d.Size)
	}
	if d.Min < 0 || d.Max < 0 {
		return fmt.Errorf("workload: size dist %q: negative clamp bound", d.Kind)
	}
	if d.Min > 0 && d.Max > 0 && d.Min > d.Max {
		return fmt.Errorf("workload: size dist %q: min %d > max %d", d.Kind, d.Min, d.Max)
	}
	switch d.Kind {
	case SizeFixed:
	case SizeLogNormal:
		if !finitePositive(d.Sigma) {
			return fmt.Errorf("workload: lognormal size dist: sigma %g must be finite and positive", d.Sigma)
		}
	case SizePareto:
		if !finitePositive(d.Alpha) {
			return fmt.Errorf("workload: pareto size dist: alpha %g must be finite and positive", d.Alpha)
		}
		if d.Max <= 0 {
			return fmt.Errorf("workload: pareto size dist: max bound required (bounded Pareto)")
		}
		if d.Max <= d.Size {
			return fmt.Errorf("workload: pareto size dist: max %d must exceed scale %d", d.Max, d.Size)
		}
	default:
		return fmt.Errorf("workload: unknown size dist kind %q (want fixed, lognormal or pareto)", d.Kind)
	}
	return nil
}

// finitePositive reports whether v is a positive real number: NaN and
// +Inf fail it.
func finitePositive(v float64) bool { return v > 0 && !math.IsInf(v, 1) }

// Label renders the distribution in the compact colon form ParseSizeDist
// accepts — the canonical spec-field and sweep-coordinate spelling.
func (d SizeDist) Label() string {
	switch d.Kind {
	case SizeLogNormal:
		return fmt.Sprintf("lognormal:%d:%s", int64(d.Size), trimFloat(d.Sigma))
	case SizePareto:
		return fmt.Sprintf("pareto:%d:%s:%d", int64(d.Size), trimFloat(d.Alpha), int64(d.Max))
	default:
		return fmt.Sprintf("fixed:%d", int64(d.Size))
	}
}

func trimFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Sample draws n per-circuit sizes from the distribution's own seeded
// stream. SizeFixed returns nil: the caller keeps the scalar
// TransferSize path (and its output bytes) untouched.
func (d SizeDist) Sample(seed int64, n int) ([]units.DataSize, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if d.Kind == SizeFixed || n <= 0 {
		return nil, nil
	}
	rng := sim.NewRNG(seed, "workload-sizes")
	out := make([]units.DataSize, n)
	for i := range out {
		var v float64
		switch d.Kind {
		case SizeLogNormal:
			v = float64(d.Size) * rng.LogNormal(0, d.Sigma)
		case SizePareto:
			v = boundedPareto(rng.Uniform(0, 1), float64(d.Size), float64(d.Max), d.Alpha)
		}
		s := units.DataSize(math.MaxInt64) // NaN or past int64: saturate
		if v < 1<<62 {
			s = units.DataSize(math.Round(v))
		}
		if d.Min > 0 && s < d.Min {
			s = d.Min
		}
		if d.Max > 0 && s > d.Max {
			s = d.Max
		}
		if s < 1 {
			s = 1
		}
		out[i] = s
	}
	return out, nil
}

// boundedPareto inverts the bounded-Pareto CDF on [lo, hi] with shape
// alpha at quantile u ∈ [0, 1).
func boundedPareto(u, lo, hi, alpha float64) float64 {
	la := math.Pow(lo, alpha)
	ha := math.Pow(hi, alpha)
	// float64(…) rounds the product unfused (TestNoFusedMultiplyAdd).
	return math.Pow(-(float64(u*ha)-float64(u*la)-ha)/(ha*la), -1/alpha)
}

// ParseSizeDist parses the compact colon form used by spec files and
// the -sizedists sweep flag:
//
//	fixed:<bytes>
//	lognormal:<median_bytes>:<sigma>
//	pareto:<scale_bytes>:<alpha>:<max_bytes>
//
// A bare byte count is shorthand for fixed:<bytes>.
func ParseSizeDist(s string) (SizeDist, error) {
	parts := strings.Split(strings.TrimSpace(s), ":")
	if len(parts) == 1 {
		parts = []string{string(SizeFixed), parts[0]}
	}
	bad := func() (SizeDist, error) {
		return SizeDist{}, fmt.Errorf("workload: bad size dist %q (want fixed:<bytes>, lognormal:<median>:<sigma> or pareto:<scale>:<alpha>:<max>)", s)
	}
	num := func(p string) (float64, bool) {
		v, err := strconv.ParseFloat(p, 64)
		return v, err == nil
	}
	// A byte field is an integer, exact to the byte, or a number in
	// [1, MaxInt64] checked before it converts: past that the conversion
	// wraps, and NaN converts to anything.
	size := func(p string) (units.DataSize, bool) {
		if n, err := strconv.ParseInt(p, 10, 64); err == nil {
			return units.DataSize(n), n >= 1
		}
		v, ok := num(p)
		return units.DataSize(v), ok && v >= 1 && v < math.MaxInt64
	}
	var d SizeDist
	switch SizeDistKind(parts[0]) {
	case SizeFixed:
		if len(parts) != 2 {
			return bad()
		}
		v, ok := size(parts[1])
		if !ok {
			return bad()
		}
		d = SizeDist{Kind: SizeFixed, Size: v}
	case SizeLogNormal:
		if len(parts) != 3 {
			return bad()
		}
		v, ok1 := size(parts[1])
		sg, ok2 := num(parts[2])
		if !ok1 || !ok2 {
			return bad()
		}
		d = SizeDist{Kind: SizeLogNormal, Size: v, Sigma: sg}
	case SizePareto:
		if len(parts) != 4 {
			return bad()
		}
		v, ok1 := size(parts[1])
		al, ok2 := num(parts[2])
		mx, ok3 := size(parts[3])
		if !ok1 || !ok2 || !ok3 {
			return bad()
		}
		d = SizeDist{Kind: SizePareto, Size: v, Alpha: al, Max: mx}
	default:
		return bad()
	}
	return d, d.Validate()
}

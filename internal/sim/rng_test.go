package sim

import (
	"math"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(1, "links")
	b := NewRNG(1, "links")
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same (seed, name) must yield identical streams")
		}
	}
}

func TestRNGStreamIndependence(t *testing.T) {
	a := NewRNG(1, "links")
	b := NewRNG(1, "relays")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Int63() == b.Int63() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("streams with different names collided %d/100 times", same)
	}
}

func TestRNGSeedSeparation(t *testing.T) {
	a := NewRNG(1, "links")
	b := NewRNG(2, "links")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Int63() == b.Int63() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("streams with different seeds collided %d/100 times", same)
	}
}

func TestUniformRange(t *testing.T) {
	r := NewRNG(7, "uniform")
	for i := 0; i < 1000; i++ {
		v := r.Uniform(5, 15)
		if v < 5 || v >= 15 {
			t.Fatalf("Uniform(5,15) = %v out of range", v)
		}
	}
}

func TestLogNormalStatistics(t *testing.T) {
	r := NewRNG(7, "lognormal")
	const n = 20000
	mu, sigma := 1.0, 0.5
	var sumLog float64
	for i := 0; i < n; i++ {
		v := r.LogNormal(mu, sigma)
		if v <= 0 {
			t.Fatalf("LogNormal produced non-positive %v", v)
		}
		sumLog += math.Log(v)
	}
	meanLog := sumLog / n
	if math.Abs(meanLog-mu) > 0.02 {
		t.Errorf("mean of log samples = %v, want ~%v", meanLog, mu)
	}
}

func TestExponentialMean(t *testing.T) {
	r := NewRNG(7, "exp")
	const n = 50000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Exponential(3.0)
	}
	if mean := sum / n; math.Abs(mean-3.0) > 0.1 {
		t.Errorf("Exponential(3) mean = %v, want ~3", mean)
	}
}

func TestBernoulliEdges(t *testing.T) {
	r := NewRNG(7, "bern")
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
	hits := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.25) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.25) > 0.03 {
		t.Errorf("Bernoulli(0.25) hit rate %v", frac)
	}
}

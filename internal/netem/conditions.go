package netem

import (
	"fmt"
	"time"

	"circuitstart/internal/sim"
)

// LossModel is a stateful per-frame loss process installed on a Link in
// addition to the built-in i.i.d. Bernoulli LossProb. The model is
// consulted exactly once for every frame that completes serialization —
// independent of the link's up/down state and of the built-in loss
// draw — so a model's RNG stream consumption is a pure function of the
// frame sequence and never perturbs any other stream.
type LossModel interface {
	// Drop reports whether the frame completing serialization is lost.
	Drop() bool
}

// GilbertElliott is the classic two-state burst-loss channel: a "good"
// state with low loss and a "bad" state with high loss, with geometric
// sojourn times. Each frame first draws the state transition, then the
// loss outcome in the current state, both from the model's own RNG
// stream.
type GilbertElliott struct {
	// PGoodBad and PBadGood are the per-frame transition probabilities
	// good→bad and bad→good.
	PGoodBad, PBadGood float64
	// LossGood and LossBad are the loss probabilities in each state.
	LossGood, LossBad float64
	// RNG drives both the state transitions and the loss draws. It must
	// be a dedicated stream.
	RNG *sim.RNG

	bad bool
}

// Validate checks the model parameters. Test-only: faults.Plan.Validate
// checks the same ranges for every model a run installs; on ROADMAP
// item 17's deletion queue.
func (g *GilbertElliott) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"p-good-bad", g.PGoodBad}, {"p-bad-good", g.PBadGood},
		{"loss-good", g.LossGood}, {"loss-bad", g.LossBad},
	} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("netem: gilbert-elliott %s %v outside [0,1]", p.name, p.v)
		}
	}
	if g.RNG == nil {
		return fmt.Errorf("netem: gilbert-elliott model without RNG")
	}
	return nil
}

// Drop advances the two-state chain by one frame and reports loss. Both
// draws happen unconditionally (transition first, then loss) so the
// stream consumption per frame is fixed.
func (g *GilbertElliott) Drop() bool {
	flip := g.RNG.Float64()
	if g.bad {
		if flip < g.PBadGood {
			g.bad = false
		}
	} else {
		if flip < g.PGoodBad {
			g.bad = true
		}
	}
	p := g.LossGood
	if g.bad {
		p = g.LossBad
	}
	return g.RNG.Float64() < p
}

// JitterModel adds extra propagation delay per delivery event. The model
// is consulted once per scheduled delivery (per frame untrained, per
// train trained); the link clamps delivery instants monotonically so the
// in-flight FIFO discipline is preserved under arbitrary jitter.
type JitterModel interface {
	// Extra returns the additional one-way delay for the next delivery.
	Extra() time.Duration
}

// UniformJitter draws U[0, Amplitude) of extra delay per delivery, plus
// a SpikeDelay spike with probability SpikeProb — the classic "mostly
// small jitter, occasional bufferbloat excursion" shape. All draws come
// from the model's own RNG stream: one Uniform always, one extra draw
// for the spike only when SpikeProb is in (0,1) (Bernoulli's edge
// short-circuit keeps zero-value spikes draw-free).
type UniformJitter struct {
	// Amplitude bounds the base jitter (0 disables the uniform part).
	Amplitude time.Duration
	// SpikeProb is the per-delivery probability of a latency spike.
	SpikeProb float64
	// SpikeDelay is the extra delay a spike adds.
	SpikeDelay time.Duration
	// RNG drives the draws. It must be a dedicated stream.
	RNG *sim.RNG
}

// Validate checks the model parameters. Test-only: faults.Plan.Validate
// checks the same ranges for every model a run installs; on ROADMAP
// item 17's deletion queue.
func (j *UniformJitter) Validate() error {
	if j.Amplitude < 0 {
		return fmt.Errorf("netem: jitter amplitude %v negative", j.Amplitude)
	}
	if j.SpikeProb < 0 || j.SpikeProb > 1 {
		return fmt.Errorf("netem: jitter spike probability %v outside [0,1]", j.SpikeProb)
	}
	if j.SpikeDelay < 0 {
		return fmt.Errorf("netem: jitter spike delay %v negative", j.SpikeDelay)
	}
	if j.RNG == nil {
		return fmt.Errorf("netem: jitter model without RNG")
	}
	return nil
}

// Extra returns the next delivery's additional delay.
func (j *UniformJitter) Extra() time.Duration {
	d := time.Duration(j.RNG.Float64() * float64(j.Amplitude))
	if j.RNG.Bernoulli(j.SpikeProb) {
		d += j.SpikeDelay
	}
	return d
}

package netem

import (
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

// Extra returns the next delivery's additional delay.
func (j *UniformJitter) Extra() time.Duration {
	d := time.Duration(j.RNG.Float64() * float64(j.Amplitude))
	if j.RNG.Bernoulli(j.SpikeProb) {
		d += j.SpikeDelay
	}
	return d
}

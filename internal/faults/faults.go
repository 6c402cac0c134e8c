// Package faults is the declarative fault-injection engine: a Plan
// describes when and where the network misbehaves — bursty loss, delay
// jitter, flapping access links, backbone partitions, degraded relays —
// as plain data, and Install compiles it onto a trial's sim clock.
//
// Two rules make fault plans compose deterministically:
//
//   - Every fault source draws from its own named RNG stream (derived
//     from the trial seed and the fault's index in the plan), and the
//     netem condition models consume their streams once per frame or
//     delivery unconditionally — so enabling one fault never perturbs
//     another fault's draw order, and an empty Plan leaves every seeded
//     output byte-identical to a fault-free run.
//   - Everything is scheduled on the trial clock at Install time, so a
//     faulted trial remains a pure function of its seed regardless of
//     the worker pool that runs it.
//
// The Recovery block configures the endpoint-side stall detector that
// package scenario runs on top of an installed plan: downloads whose
// transport makes no ACK/FEEDBACK/byte progress within an RTO-derived
// deadline tear their circuit down and rebuild around the failure with
// capped exponential backoff (see DESIGN.md, "Fault model & recovery").
package faults

import (
	"fmt"
	"time"

	"circuitstart/internal/netem"
	"circuitstart/internal/sim"
)

// BurstLoss installs a Gilbert–Elliott two-state loss channel on both
// access links of a relay for a window of the trial.
type BurstLoss struct {
	// Relay names the relay whose access links take the burst loss.
	Relay netem.NodeID
	// From and Until bound the active window (Until 0 = to the horizon).
	From, Until sim.Time
	// PGoodBad and PBadGood are the per-frame state transition
	// probabilities; LossGood and LossBad the per-state loss rates.
	PGoodBad, PBadGood float64
	LossGood, LossBad  float64
}

// Jitter installs a delay jitter/spike model on both access links of a
// relay for a window of the trial.
type Jitter struct {
	Relay       netem.NodeID
	From, Until sim.Time
	// Amplitude bounds the uniform per-delivery jitter.
	Amplitude time.Duration
	// SpikeProb and SpikeDelay add occasional latency excursions.
	SpikeProb  float64
	SpikeDelay time.Duration
}

// Flap takes a relay's access links down and back up, optionally on a
// repeating schedule — the link-layer failure the overlay cannot see
// except as silence.
type Flap struct {
	Relay netem.NodeID
	// DownAt is the first down instant; UpAfter the downtime per flap.
	DownAt  sim.Time
	UpAfter time.Duration
	// Repeat adds that many further down/up cycles, spaced Every apart.
	Repeat int
	Every  time.Duration
}

// Partition takes both directions of a backbone trunk down — every
// circuit routed across it goes dark at once.
type Partition struct {
	TrunkA, TrunkB netem.SwitchID
	At             sim.Time
	// HealAfter brings the trunk back (0 = never heals).
	HealAfter time.Duration
}

// DegradeMode selects a relay degradation beyond crash-stop.
type DegradeMode int

const (
	// DegradeHang blackholes every frame the relay receives while
	// leaving it "up" as far as the scripted churn machinery can tell
	// (relay.Hang) — only endpoint stall detection escapes it.
	DegradeHang DegradeMode = iota
	// DegradeSlow multiplies the relay's access-link rates by
	// RateFactor — a limping relay that still forwards, slowly.
	// Test-only: scenario's TestFaultsValidation plans it; specs name it
	// "slow".
	DegradeSlow
)

func (m DegradeMode) String() string {
	switch m {
	case DegradeHang:
		return "hang"
	case DegradeSlow:
		return "slow"
	default:
		return fmt.Sprintf("DegradeMode(%d)", int(m))
	}
}

// Degrade schedules one relay degradation episode.
type Degrade struct {
	Relay netem.NodeID
	Mode  DegradeMode
	At    sim.Time
	// RecoverAfter ends the episode (0 = never recovers).
	RecoverAfter time.Duration
	// RateFactor is the access-rate multiplier for DegradeSlow, in
	// (0, 1]. Ignored for DegradeHang.
	RateFactor float64
}

// Recovery configures endpoint-side stall detection and circuit
// rebuild. The zero value disables recovery: faulted circuits stall
// until the horizon, exactly as the pre-recovery simulator behaved.
type Recovery struct {
	// Enabled turns the stall detector on for every download.
	Enabled bool
	// StallRTOs is the no-progress deadline in RTOs of the download's
	// recovery estimator (default 3): a download whose transport makes
	// no progress for StallRTOs × RTO is declared stalled.
	StallRTOs int
	// MaxRetries caps circuit rebuilds per download before the download
	// is abandoned (default 4).
	MaxRetries int
	// RTOMin and RTOMax clamp the recovery estimator's RTO (defaults
	// 100 ms and 10 s). Before the first RTT sample the estimator is
	// deliberately conservative (10 × RTOMin).
	RTOMin, RTOMax time.Duration
}

// Plan is a complete declarative fault schedule for one trial. The zero
// value injects nothing and keeps every execution path byte-identical
// to a fault-free run.
type Plan struct {
	BurstLoss  []BurstLoss
	Jitter     []Jitter
	Flaps      []Flap
	Partitions []Partition
	Degrades   []Degrade
	Recovery   Recovery
}

// Enabled reports whether the plan changes anything at all — any fault
// source scheduled, or endpoint recovery switched on.
func (p *Plan) Enabled() bool {
	return len(p.BurstLoss) > 0 || len(p.Jitter) > 0 || len(p.Flaps) > 0 ||
		len(p.Partitions) > 0 || len(p.Degrades) > 0 || p.Recovery.Enabled
}

// Validate checks the plan against the topology it will be installed on
// and fills Recovery defaults in place. relays is the set of relay IDs
// the topology will contain; hasTrunk reports whether a backbone trunk
// joins two switches (nil when the topology has no routed fabric).
func (p *Plan) Validate(relays map[netem.NodeID]bool, hasTrunk func(a, b netem.SwitchID) bool) error {
	prob := func(what string, v float64) error {
		if v < 0 || v > 1 {
			return fmt.Errorf("faults: %s %v outside [0,1]", what, v)
		}
		return nil
	}
	relayKnown := func(what string, id netem.NodeID) error {
		if id == "" {
			return fmt.Errorf("faults: %s names no relay", what)
		}
		if !relays[id] {
			return fmt.Errorf("faults: %s names unknown relay %q", what, id)
		}
		return nil
	}
	for i, b := range p.BurstLoss {
		what := fmt.Sprintf("burst loss %d", i)
		if err := relayKnown(what, b.Relay); err != nil {
			return err
		}
		if b.From < 0 || (b.Until != 0 && b.Until <= b.From) {
			return fmt.Errorf("faults: %s window [%v, %v)", what, b.From, b.Until)
		}
		for _, pr := range []struct {
			name string
			v    float64
		}{
			{"p-good-bad", b.PGoodBad}, {"p-bad-good", b.PBadGood},
			{"loss-good", b.LossGood}, {"loss-bad", b.LossBad},
		} {
			if err := prob(what+" "+pr.name, pr.v); err != nil {
				return err
			}
		}
	}
	for i, j := range p.Jitter {
		what := fmt.Sprintf("jitter %d", i)
		if err := relayKnown(what, j.Relay); err != nil {
			return err
		}
		if j.From < 0 || (j.Until != 0 && j.Until <= j.From) {
			return fmt.Errorf("faults: %s window [%v, %v)", what, j.From, j.Until)
		}
		if j.Amplitude < 0 || j.SpikeDelay < 0 {
			return fmt.Errorf("faults: %s negative delay", what)
		}
		if err := prob(what+" spike probability", j.SpikeProb); err != nil {
			return err
		}
		if j.Amplitude == 0 && (j.SpikeProb == 0 || j.SpikeDelay == 0) {
			return fmt.Errorf("faults: %s injects no delay", what)
		}
	}
	for i, f := range p.Flaps {
		what := fmt.Sprintf("flap %d", i)
		if err := relayKnown(what, f.Relay); err != nil {
			return err
		}
		if f.DownAt < 0 || f.UpAfter <= 0 {
			return fmt.Errorf("faults: %s down at %v for %v", what, f.DownAt, f.UpAfter)
		}
		if f.Repeat < 0 {
			return fmt.Errorf("faults: %s repeat %d", what, f.Repeat)
		}
		if f.Repeat > 0 && f.Every <= time.Duration(0) {
			return fmt.Errorf("faults: %s repeats without a period", what)
		}
		if f.Repeat > 0 && f.Every <= f.UpAfter {
			return fmt.Errorf("faults: %s period %v not longer than downtime %v", what, f.Every, f.UpAfter)
		}
	}
	for i, pt := range p.Partitions {
		what := fmt.Sprintf("partition %d", i)
		if pt.TrunkA == "" || pt.TrunkB == "" {
			return fmt.Errorf("faults: %s names only one trunk endpoint", what)
		}
		if hasTrunk == nil {
			return fmt.Errorf("faults: %s targets trunk %q-%q but the topology has no fabric", what, pt.TrunkA, pt.TrunkB)
		}
		if !hasTrunk(pt.TrunkA, pt.TrunkB) {
			return fmt.Errorf("faults: %s names unknown trunk %q-%q", what, pt.TrunkA, pt.TrunkB)
		}
		if pt.At < 0 || pt.HealAfter < 0 {
			return fmt.Errorf("faults: %s at %v heal after %v", what, pt.At, pt.HealAfter)
		}
	}
	for i, d := range p.Degrades {
		what := fmt.Sprintf("degrade %d", i)
		if err := relayKnown(what, d.Relay); err != nil {
			return err
		}
		if d.Mode != DegradeHang && d.Mode != DegradeSlow {
			return fmt.Errorf("faults: %s has unknown mode %d", what, d.Mode)
		}
		if d.At < 0 || d.RecoverAfter < 0 {
			return fmt.Errorf("faults: %s at %v recover after %v", what, d.At, d.RecoverAfter)
		}
		if d.Mode == DegradeSlow && (d.RateFactor <= 0 || d.RateFactor > 1) {
			return fmt.Errorf("faults: %s rate factor %v outside (0,1]", what, d.RateFactor)
		}
	}
	r := &p.Recovery
	if r.StallRTOs < 0 || r.MaxRetries < 0 || r.RTOMin < 0 || r.RTOMax < 0 {
		return fmt.Errorf("faults: negative recovery configuration")
	}
	if r.StallRTOs == 0 {
		r.StallRTOs = 3
	}
	if r.MaxRetries == 0 {
		r.MaxRetries = 4
	}
	if r.RTOMin == 0 {
		r.RTOMin = 100 * time.Millisecond
	}
	if r.RTOMax == 0 {
		r.RTOMax = 10 * time.Second
	}
	if r.RTOMax < r.RTOMin {
		return fmt.Errorf("faults: recovery RTO bounds %v > %v", r.RTOMin, r.RTOMax)
	}
	return nil
}

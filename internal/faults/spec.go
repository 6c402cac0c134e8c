package faults

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"

	"circuitstart/internal/netem"
	"circuitstart/internal/sim"
)

// planSpec is the JSON wire form of a Plan. Times are float seconds and
// milliseconds so spec files read like the paper's prose ("a 30 s trunk
// partition", "±5 ms jitter") rather than nanosecond integers. The
// sub-structs are named so ParseSpec and MarshalSpec share one schema.
type planSpec struct {
	BurstLoss  []burstLossSpec `json:"burst_loss,omitempty"`
	Jitter     []jitterSpec    `json:"jitter,omitempty"`
	Flaps      []flapSpec      `json:"flaps,omitempty"`
	Partitions []partitionSpec `json:"partitions,omitempty"`
	Degrades   []degradeSpec   `json:"degrades,omitempty"`
	Recovery   *recoverySpec   `json:"recovery,omitempty"`
}

type burstLossSpec struct {
	Relay    string  `json:"relay"`
	FromS    float64 `json:"from_s"`
	UntilS   float64 `json:"until_s"`
	PGoodBad float64 `json:"p_good_bad"`
	PBadGood float64 `json:"p_bad_good"`
	LossGood float64 `json:"loss_good"`
	LossBad  float64 `json:"loss_bad"`
}

type jitterSpec struct {
	Relay       string  `json:"relay"`
	FromS       float64 `json:"from_s"`
	UntilS      float64 `json:"until_s"`
	AmplitudeMS float64 `json:"amplitude_ms"`
	SpikeProb   float64 `json:"spike_prob"`
	SpikeMS     float64 `json:"spike_ms"`
}

type flapSpec struct {
	Relay    string  `json:"relay"`
	DownAtS  float64 `json:"down_at_s"`
	UpAfterS float64 `json:"up_after_s"`
	Repeat   int     `json:"repeat"`
	EveryS   float64 `json:"every_s"`
}

type partitionSpec struct {
	TrunkA     string  `json:"trunk_a"`
	TrunkB     string  `json:"trunk_b"`
	AtS        float64 `json:"at_s"`
	HealAfterS float64 `json:"heal_after_s"`
}

type degradeSpec struct {
	Relay         string  `json:"relay"`
	Mode          string  `json:"mode"`
	AtS           float64 `json:"at_s"`
	RecoverAfterS float64 `json:"recover_after_s"`
	RateFactor    float64 `json:"rate_factor"`
}

type recoverySpec struct {
	Enabled    bool    `json:"enabled"`
	StallRTOs  int     `json:"stall_rtos"`
	MaxRetries int     `json:"max_retries"`
	RTOMinMS   float64 `json:"rto_min_ms"`
	RTOMaxMS   float64 `json:"rto_max_ms"`
}

// maxWireSeconds bounds every time a plan's wire form names: ±1e6 s,
// about 11.6 days of virtual time. Inside it a time in nanoseconds is
// exact in a float64, so it converts to nanoseconds and back without
// drift; past int64 the float-to-integer conversion differs by
// platform.
const maxWireSeconds = 1e6

// wireTimes converts wire-form times to nanoseconds, rounded to the
// nearest, and keeps the first time outside ±maxWireSeconds as its
// error. Rounding (not truncation) makes MarshalSpec ∘ ParseSpec a
// fixed point: 525.4337364610001 s truncated to 525433736461 ns
// rendered as 525.433736461, which truncated to one nanosecond less.
type wireTimes struct{ err error }

func (w *wireTimes) ns(v float64, unit time.Duration) int64 {
	if !(math.Abs(v)*float64(unit) <= maxWireSeconds*float64(time.Second)) {
		if w.err == nil {
			w.err = fmt.Errorf("faults: time %g × %v outside ±%g s", v, unit, maxWireSeconds)
		}
		return 0
	}
	return int64(math.Round(v * float64(unit)))
}

func (w *wireTimes) seconds(s float64) sim.Time       { return sim.Time(w.ns(s, time.Second)) }
func (w *wireTimes) secondsD(s float64) time.Duration { return time.Duration(w.ns(s, time.Second)) }
func (w *wireTimes) millis(ms float64) time.Duration {
	return time.Duration(w.ns(ms, time.Millisecond))
}

func toSeconds(t sim.Time) float64       { return float64(t) / float64(time.Second) }
func toSecondsD(d time.Duration) float64 { return float64(d) / float64(time.Second) }
func toMillis(d time.Duration) float64   { return float64(d) / float64(time.Millisecond) }

// ParseSpec decodes a JSON fault plan. Unknown fields are rejected so a
// typo fails the run instead of silently injecting nothing, and so is a
// time outside ±maxWireSeconds. The returned plan still needs Validate
// against the target topology.
func ParseSpec(data []byte) (Plan, error) {
	var spec planSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return Plan{}, fmt.Errorf("faults: parsing spec: %w", err)
	}
	var p Plan
	var w wireTimes
	for _, b := range spec.BurstLoss {
		p.BurstLoss = append(p.BurstLoss, BurstLoss{
			Relay: netem.NodeID(b.Relay),
			From:  w.seconds(b.FromS), Until: w.seconds(b.UntilS),
			PGoodBad: b.PGoodBad, PBadGood: b.PBadGood,
			LossGood: b.LossGood, LossBad: b.LossBad,
		})
	}
	for _, j := range spec.Jitter {
		p.Jitter = append(p.Jitter, Jitter{
			Relay: netem.NodeID(j.Relay),
			From:  w.seconds(j.FromS), Until: w.seconds(j.UntilS),
			Amplitude: w.millis(j.AmplitudeMS),
			SpikeProb: j.SpikeProb, SpikeDelay: w.millis(j.SpikeMS),
		})
	}
	for _, f := range spec.Flaps {
		p.Flaps = append(p.Flaps, Flap{
			Relay:  netem.NodeID(f.Relay),
			DownAt: w.seconds(f.DownAtS), UpAfter: w.secondsD(f.UpAfterS),
			Repeat: f.Repeat, Every: w.secondsD(f.EveryS),
		})
	}
	for _, pt := range spec.Partitions {
		p.Partitions = append(p.Partitions, Partition{
			TrunkA: netem.SwitchID(pt.TrunkA), TrunkB: netem.SwitchID(pt.TrunkB),
			At: w.seconds(pt.AtS), HealAfter: w.secondsD(pt.HealAfterS),
		})
	}
	for _, d := range spec.Degrades {
		var mode DegradeMode
		switch d.Mode {
		case "hang":
			mode = DegradeHang
		case "slow":
			mode = DegradeSlow
		default:
			return Plan{}, fmt.Errorf("faults: degrade mode %q (want \"hang\" or \"slow\")", d.Mode)
		}
		p.Degrades = append(p.Degrades, Degrade{
			Relay: netem.NodeID(d.Relay), Mode: mode,
			At: w.seconds(d.AtS), RecoverAfter: w.secondsD(d.RecoverAfterS),
			RateFactor: d.RateFactor,
		})
	}
	if r := spec.Recovery; r != nil {
		p.Recovery = Recovery{
			Enabled: r.Enabled, StallRTOs: r.StallRTOs, MaxRetries: r.MaxRetries,
			RTOMin: w.millis(r.RTOMinMS), RTOMax: w.millis(r.RTOMaxMS),
		}
	}
	if w.err != nil {
		return Plan{}, w.err
	}
	return p, nil
}

// MarshalSpec renders a Plan back into its canonical JSON wire form —
// the inverse of ParseSpec, used by internal/spec to re-emit inline
// fault plans canonically so spec round-trips are byte-stable. The
// output is compact (no indentation); empty fault lists are omitted and
// a zero Recovery block is dropped entirely.
func MarshalSpec(p Plan) ([]byte, error) {
	var spec planSpec
	for _, b := range p.BurstLoss {
		spec.BurstLoss = append(spec.BurstLoss, burstLossSpec{
			Relay: string(b.Relay),
			FromS: toSeconds(b.From), UntilS: toSeconds(b.Until),
			PGoodBad: b.PGoodBad, PBadGood: b.PBadGood,
			LossGood: b.LossGood, LossBad: b.LossBad,
		})
	}
	for _, j := range p.Jitter {
		spec.Jitter = append(spec.Jitter, jitterSpec{
			Relay: string(j.Relay),
			FromS: toSeconds(j.From), UntilS: toSeconds(j.Until),
			AmplitudeMS: toMillis(j.Amplitude),
			SpikeProb:   j.SpikeProb, SpikeMS: toMillis(j.SpikeDelay),
		})
	}
	for _, f := range p.Flaps {
		spec.Flaps = append(spec.Flaps, flapSpec{
			Relay:   string(f.Relay),
			DownAtS: toSeconds(f.DownAt), UpAfterS: toSecondsD(f.UpAfter),
			Repeat: f.Repeat, EveryS: toSecondsD(f.Every),
		})
	}
	for _, pt := range p.Partitions {
		spec.Partitions = append(spec.Partitions, partitionSpec{
			TrunkA: string(pt.TrunkA), TrunkB: string(pt.TrunkB),
			AtS: toSeconds(pt.At), HealAfterS: toSecondsD(pt.HealAfter),
		})
	}
	for _, d := range p.Degrades {
		switch d.Mode {
		case DegradeHang, DegradeSlow:
		default:
			return nil, fmt.Errorf("faults: cannot marshal degrade mode %v", d.Mode)
		}
		spec.Degrades = append(spec.Degrades, degradeSpec{
			Relay: string(d.Relay), Mode: d.Mode.String(),
			AtS: toSeconds(d.At), RecoverAfterS: toSecondsD(d.RecoverAfter),
			RateFactor: d.RateFactor,
		})
	}
	if p.Recovery != (Recovery{}) {
		spec.Recovery = &recoverySpec{
			Enabled: p.Recovery.Enabled, StallRTOs: p.Recovery.StallRTOs,
			MaxRetries: p.Recovery.MaxRetries,
			RTOMinMS:   toMillis(p.Recovery.RTOMin), RTOMaxMS: toMillis(p.Recovery.RTOMax),
		}
	}
	return json.Marshal(spec)
}

// presets maps names to plan constructors parameterized by the target
// topology's relay IDs (in the topology's own order). Presets only touch
// relays — never trunks — so they apply to any topology; partition
// faults need an explicit spec file naming the trunk.
var presets = map[string]func(relays []netem.NodeID) Plan{
	// none: the empty plan — the control arm of a faults sweep axis.
	"none": func([]netem.NodeID) Plan { return Plan{} },
	// recovery: no injected faults, recovery armed. Distinguishes the
	// cost of the watchdog from the cost of the faults it answers.
	"recovery": func([]netem.NodeID) Plan {
		return Plan{Recovery: Recovery{Enabled: true}}
	},
	// burstloss: Gilbert–Elliott burst loss on the first three relays
	// from t=2s, ~4% mean loss in bursts (bad-state dwell ~10 frames).
	"burstloss": func(relays []netem.NodeID) Plan {
		var p Plan
		for _, id := range firstN(relays, 3) {
			p.BurstLoss = append(p.BurstLoss, BurstLoss{
				Relay: id, From: 2 * sim.Second,
				PGoodBad: 0.005, PBadGood: 0.1, LossGood: 0, LossBad: 0.8,
			})
		}
		p.Recovery = Recovery{Enabled: true}
		return p
	},
	// flaky: the first relay flaps (3 s down every 20 s), the second
	// jitters ±5 ms with occasional 50 ms spikes.
	"flaky": func(relays []netem.NodeID) Plan {
		var p Plan
		ids := firstN(relays, 2)
		if len(ids) > 0 {
			p.Flaps = append(p.Flaps, Flap{
				Relay: ids[0], DownAt: 5 * sim.Second,
				UpAfter: 3 * time.Second, Repeat: 2, Every: 20 * time.Second,
			})
		}
		if len(ids) > 1 {
			p.Jitter = append(p.Jitter, Jitter{
				Relay: ids[1], From: 2 * sim.Second,
				Amplitude: 5 * time.Millisecond,
				SpikeProb: 0.02, SpikeDelay: 50 * time.Millisecond,
			})
		}
		p.Recovery = Recovery{Enabled: true}
		return p
	},
	// hang: the first relay silently blackholes from t=5s for 15 s —
	// the failure mode only endpoint stall detection can see.
	"hang": func(relays []netem.NodeID) Plan {
		var p Plan
		for _, id := range firstN(relays, 1) {
			p.Degrades = append(p.Degrades, Degrade{
				Relay: id, Mode: DegradeHang,
				At: 5 * sim.Second, RecoverAfter: 15 * time.Second,
			})
		}
		p.Recovery = Recovery{Enabled: true}
		return p
	},
	// slow: the first relay limps at a tenth of its access rate from
	// t=5s for 20 s.
	"slow": func(relays []netem.NodeID) Plan {
		var p Plan
		for _, id := range firstN(relays, 1) {
			p.Degrades = append(p.Degrades, Degrade{
				Relay: id, Mode: DegradeSlow,
				At: 5 * sim.Second, RecoverAfter: 20 * time.Second, RateFactor: 0.1,
			})
		}
		p.Recovery = Recovery{Enabled: true}
		return p
	},
}

func firstN(ids []netem.NodeID, n int) []netem.NodeID {
	if len(ids) < n {
		n = len(ids)
	}
	return ids[:n]
}

// Preset renders a named fault preset against a topology's relay list.
// The returned plan still needs Validate (which also fills recovery
// defaults).
func Preset(name string, relays []netem.NodeID) (Plan, error) {
	fn, ok := presets[name]
	if !ok {
		return Plan{}, fmt.Errorf("faults: unknown preset %q (have %v)", name, PresetNames())
	}
	return fn(relays), nil
}

// PresetNames returns the available preset names, sorted.
func PresetNames() []string {
	names := make([]string, 0, len(presets))
	for name := range presets {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

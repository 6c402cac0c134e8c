package faults

import (
	"strings"
	"testing"
	"time"

	"circuitstart/internal/netem"
	"circuitstart/internal/sim"
)

func TestPlanEnabled(t *testing.T) {
	var p Plan
	if p.Enabled() {
		t.Fatal("zero plan reports enabled")
	}
	p.Recovery.Enabled = true
	if !p.Enabled() {
		t.Fatal("recovery-only plan reports disabled")
	}
	p = Plan{Flaps: []Flap{{Relay: "r", DownAt: sim.Second, UpAfter: time.Second}}}
	if !p.Enabled() {
		t.Fatal("flap plan reports disabled")
	}
}

func TestPlanValidateFillsRecoveryDefaults(t *testing.T) {
	p := Plan{Recovery: Recovery{Enabled: true}}
	if err := p.Validate(nil, nil); err != nil {
		t.Fatal(err)
	}
	r := p.Recovery
	if r.StallRTOs != 3 || r.MaxRetries != 4 ||
		r.RTOMin != 100*time.Millisecond || r.RTOMax != 10*time.Second {
		t.Fatalf("defaults not filled: %+v", r)
	}
}

func TestPlanValidateErrors(t *testing.T) {
	relays := map[netem.NodeID]bool{"r1": true, "r2": true}
	trunk := func(a, b netem.SwitchID) bool { return a == "west" && b == "east" }
	cases := []struct {
		name string
		plan Plan
		want string
	}{
		{"unknown relay", Plan{BurstLoss: []BurstLoss{{Relay: "ghost"}}}, "unknown relay"},
		{"empty relay", Plan{Jitter: []Jitter{{Amplitude: time.Millisecond}}}, "names no relay"},
		{"bad probability", Plan{BurstLoss: []BurstLoss{{Relay: "r1", PGoodBad: -0.1}}}, "p-good-bad"},
		{"inverted window", Plan{BurstLoss: []BurstLoss{{Relay: "r1", From: 2 * sim.Second, Until: sim.Second}}}, "window"},
		{"no delay jitter", Plan{Jitter: []Jitter{{Relay: "r1"}}}, "injects no delay"},
		{"flap no downtime", Plan{Flaps: []Flap{{Relay: "r1"}}}, "down at"},
		{"flap short period", Plan{Flaps: []Flap{{Relay: "r1", UpAfter: 5 * time.Second, Repeat: 1, Every: time.Second}}}, "period"},
		{"unknown trunk", Plan{Partitions: []Partition{{TrunkA: "east", TrunkB: "west"}}}, "unknown trunk"},
		{"half-named trunk", Plan{Partitions: []Partition{{TrunkA: "west"}}}, "one trunk endpoint"},
		{"bad degrade mode", Plan{Degrades: []Degrade{{Relay: "r1", Mode: DegradeMode(9)}}}, "unknown mode"},
		{"bad rate factor", Plan{Degrades: []Degrade{{Relay: "r1", Mode: DegradeSlow, RateFactor: 1.5}}}, "rate factor"},
		{"negative recovery", Plan{Recovery: Recovery{Enabled: true, MaxRetries: -1}}, "negative recovery"},
		{"inverted rto", Plan{Recovery: Recovery{Enabled: true, RTOMin: time.Second, RTOMax: time.Millisecond}}, "RTO bounds"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.plan.Validate(relays, trunk)
			if err == nil {
				t.Fatal("invalid plan accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	// Partitions on a topology with no fabric at all.
	p := Plan{Partitions: []Partition{{TrunkA: "west", TrunkB: "east"}}}
	if err := p.Validate(relays, nil); err == nil || !strings.Contains(err.Error(), "no fabric") {
		t.Fatalf("partition without fabric: err = %v", err)
	}
}

func TestParseSpecRoundTrip(t *testing.T) {
	spec := `{
		"burst_loss": [{"relay": "r1", "from_s": 2, "until_s": 10, "p_good_bad": 0.01, "p_bad_good": 0.1, "loss_bad": 0.5}],
		"jitter": [{"relay": "r2", "amplitude_ms": 5, "spike_prob": 0.02, "spike_ms": 50}],
		"flaps": [{"relay": "r1", "down_at_s": 5, "up_after_s": 3, "repeat": 2, "every_s": 20}],
		"partitions": [{"trunk_a": "west", "trunk_b": "east", "at_s": 30, "heal_after_s": 10}],
		"degrades": [{"relay": "r2", "mode": "slow", "at_s": 5, "recover_after_s": 20, "rate_factor": 0.1}],
		"recovery": {"enabled": true, "max_retries": 8, "rto_min_ms": 50, "rto_max_ms": 2000}
	}`
	p, err := ParseSpec([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.BurstLoss) != 1 || p.BurstLoss[0].From != 2*sim.Second || p.BurstLoss[0].LossBad != 0.5 {
		t.Fatalf("burst loss = %+v", p.BurstLoss)
	}
	if len(p.Jitter) != 1 || p.Jitter[0].Amplitude != 5*time.Millisecond || p.Jitter[0].SpikeDelay != 50*time.Millisecond {
		t.Fatalf("jitter = %+v", p.Jitter)
	}
	if len(p.Flaps) != 1 || p.Flaps[0].Every != 20*time.Second {
		t.Fatalf("flaps = %+v", p.Flaps)
	}
	if len(p.Partitions) != 1 || p.Partitions[0].HealAfter != 10*time.Second {
		t.Fatalf("partitions = %+v", p.Partitions)
	}
	if len(p.Degrades) != 1 || p.Degrades[0].Mode != DegradeSlow || p.Degrades[0].RateFactor != 0.1 {
		t.Fatalf("degrades = %+v", p.Degrades)
	}
	if !p.Recovery.Enabled || p.Recovery.MaxRetries != 8 || p.Recovery.RTOMin != 50*time.Millisecond {
		t.Fatalf("recovery = %+v", p.Recovery)
	}
	relays := map[netem.NodeID]bool{"r1": true, "r2": true}
	trunk := func(a, b netem.SwitchID) bool { return true }
	if err := p.Validate(relays, trunk); err != nil {
		t.Fatal(err)
	}
}

func TestParseSpecErrors(t *testing.T) {
	cases := []string{
		`{"bogus": 1}`, // unknown field
		`{"degrades": [{"relay": "r1", "mode": "melt"}]}`, // unknown mode
		`not json`,
		`{"flaps": [{"relay": "r1", "down_at_s": 1e300}]}`,      // past int64 nanoseconds
		`{"jitter": [{"relay": "r1", "amplitude_ms": -1.1e9}]}`, // past ±1e6 s
	}
	for i, spec := range cases {
		if _, err := ParseSpec([]byte(spec)); err == nil {
			t.Errorf("case %d accepted: %s", i, spec)
		}
	}
}

func TestPresets(t *testing.T) {
	relays := []netem.NodeID{"a", "b", "c", "d"}
	relaySet := map[netem.NodeID]bool{"a": true, "b": true, "c": true, "d": true}
	for _, name := range PresetNames() {
		p, err := Preset(name, relays)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := p.Validate(relaySet, nil); err != nil {
			t.Fatalf("%s does not validate: %v", name, err)
		}
		if name != "none" && !p.Enabled() {
			t.Fatalf("%s renders a disabled plan", name)
		}
	}
	if p, _ := Preset("none", relays); p.Enabled() {
		t.Fatal("none preset injects something")
	}
	if _, err := Preset("meteor", relays); err == nil {
		t.Fatal("unknown preset accepted")
	}
	// Presets degrade gracefully on small topologies: a single relay is
	// enough for every preset to validate.
	one := []netem.NodeID{"solo"}
	for _, name := range PresetNames() {
		p, err := Preset(name, one)
		if err != nil {
			t.Fatalf("%s on one relay: %v", name, err)
		}
		if err := p.Validate(map[netem.NodeID]bool{"solo": true}, nil); err != nil {
			t.Fatalf("%s on one relay does not validate: %v", name, err)
		}
	}
}

func TestExcludedWith(t *testing.T) {
	var inj *Injector
	base := map[netem.NodeID]bool{"dead": true}
	if got := inj.ExcludedWith(base); len(got) != 1 || !got["dead"] {
		t.Fatalf("nil injector ExcludedWith = %v", got)
	}
	inj = &Injector{suspect: map[netem.NodeID]int{}}
	// No suspects: the base map must come back untouched (same map, no
	// copy) so the fault-free path allocates nothing.
	if got := inj.ExcludedWith(base); len(got) != 1 {
		t.Fatalf("ExcludedWith with no suspects = %v", got)
	}
	inj.suspect["hung"] = 1
	got := inj.ExcludedWith(base)
	if !got["dead"] || !got["hung"] {
		t.Fatalf("merged exclusion = %v", got)
	}
	if base["hung"] {
		t.Fatal("ExcludedWith mutated the base map")
	}
}

package faults

import (
	"bytes"
	"os"
	"testing"

	"circuitstart/internal/netem"
)

// FuzzParseSpec checks the fault-plan codec's canonical form: for any
// input ParseSpec accepts, MarshalSpec renders it, the rendering parses
// again, and rendering that reproduces it byte for byte — the property
// spec.Parse relies on when it re-encodes an inline fault plan.
func FuzzParseSpec(f *testing.F) {
	for _, src := range []string{
		`{}`,
		`{"bogus": 1}`,
		`{"degrades": [{"relay": "r1", "mode": "melt"}]}`,
		`{"burst_loss": [{"relay": "r1", "from_s": 2, "until_s": 10, "p_good_bad": 0.01, "p_bad_good": 0.1, "loss_bad": 0.5}],
		  "jitter": [{"relay": "r2", "amplitude_ms": 5, "spike_prob": 0.02, "spike_ms": 50}],
		  "flaps": [{"relay": "r1", "down_at_s": 5, "up_after_s": 3, "repeat": 2, "every_s": 20}],
		  "partitions": [{"trunk_a": "west", "trunk_b": "east", "at_s": 30, "heal_after_s": 10}],
		  "degrades": [{"relay": "r2", "mode": "slow", "at_s": 5, "recover_after_s": 20, "rate_factor": 0.1}],
		  "recovery": {"enabled": true, "max_retries": 8, "rto_min_ms": 50, "rto_max_ms": 2000}}`,
	} {
		f.Add([]byte(src))
	}
	if data, err := os.ReadFile("../../cmd/circuitsim/testdata/sharded_faults.json"); err == nil {
		f.Add(data)
	}
	for _, name := range PresetNames() {
		p, err := Preset(name, []netem.NodeID{"r1", "r2", "r3"})
		if err != nil {
			f.Fatal(err)
		}
		data, err := MarshalSpec(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		p, err := ParseSpec(src)
		if err != nil {
			return
		}
		canon, err := MarshalSpec(p)
		if err != nil {
			t.Fatalf("MarshalSpec of a parsed plan: %v\ninput: %q", err, src)
		}
		p2, err := ParseSpec(canon)
		if err != nil {
			t.Fatalf("canonical form does not parse: %v\ncanonical: %s", err, canon)
		}
		canon2, err := MarshalSpec(p2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(canon, canon2) {
			t.Fatalf("canonical form is not a fixed point:\ninput:  %q\nfirst:  %s\nsecond: %s", src, canon, canon2)
		}
	})
}

package spec

import (
	"bytes"
	"testing"
)

// FuzzParse checks the canonical form the serve daemon's point cache is
// keyed on: for any input Parse accepts, Marshal renders it, the
// rendering parses again, and rendering that reproduces it byte for
// byte (TestMarshalParseFixedPoint is the same property over the
// hand-written corpus).
func FuzzParse(f *testing.F) {
	for _, src := range specCorpus {
		f.Add([]byte(src))
	}
	for _, src := range []string{
		`{"dimensions": [{"gammas": [2]}], "bogus": true}`,
		`{"base": {"kind": "population", "spread_ms": 10, "poisson_rate": 5}, "dimensions": [{"gammas": [2]}]}`,
		`{"base": {"faults": "hang"}, "dimensions": [{"gammas": [2]}]}`,
		`{"base": {"kind": "population", "relays": 8, "circuits": 2,
		   "fault_plan": {"flaps": [{"relay": "relay-001", "down_at_s": 0.8, "up_after_s": 0.3, "repeat": 1, "every_s": 1.5}]}},
		  "dimensions": [{"counts": [2]}]}`,
	} {
		f.Add([]byte(src))
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		file, err := Parse(src)
		if err != nil {
			return
		}
		canon, err := Marshal(file)
		if err != nil {
			t.Fatalf("Marshal of a parsed spec: %v\ninput: %q", err, src)
		}
		again, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical form does not parse: %v\ninput: %q\ncanonical:\n%s", err, src, canon)
		}
		canon2, err := Marshal(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(canon, canon2) {
			t.Fatalf("canonical form is not a fixed point:\ninput: %q\n--- first ---\n%s--- second ---\n%s", src, canon, canon2)
		}
	})
}

package main

import (
	"flag"
	"reflect"
	"strings"
	"testing"

	"circuitstart/internal/spec"
)

// jsonTags collects the JSON field names of a struct type.
func jsonTags(t *testing.T, v any) map[string]bool {
	t.Helper()
	out := map[string]bool{}
	rt := reflect.TypeOf(v)
	for i := 0; i < rt.NumField(); i++ {
		tag := rt.Field(i).Tag.Get("json")
		name, _, _ := strings.Cut(tag, ",")
		if name == "" || name == "-" {
			t.Fatalf("%s.%s has no json tag", rt.Name(), rt.Field(i).Name)
		}
		out[name] = true
	}
	return out
}

// flagNameFor derives the CLI flag a spec field maps to: unit suffixes
// drop (the flag's usage string documents the unit) and underscores
// collapse. This is the naming rule that keeps `-bandwidths` and
// `"bandwidths_mbps"` recognizably the same axis.
func flagNameFor(field string) string {
	for _, suffix := range []string{"_mbps", "_bytes", "_sec", "_ms"} {
		field = strings.TrimSuffix(field, suffix)
	}
	return strings.ReplaceAll(field, "_", "")
}

// baseFlagFields maps each flag defineBaseFlags declares, for both
// commands, to the spec.Base JSON field it fills ("" for the File-level
// seed).
var baseFlagFields = map[string]string{
	"seed":     "",
	"arms":     "arms",
	"hops":     "hops",
	"relays":   "relays",
	"circuits": "circuits",
	"switches": "switches",
	"size":     "size_bytes",
	"download": "download",
	"horizon":  "horizon_sec",
	"spread":   "spread_ms",
}

// TestSweepFlagsMatchSpecFields is the drift test the spec schema
// demands, over both commands that build a spec from flags: every
// dimension axis has exactly one sweep flag, named from its JSON field
// by the naming rule; every flag sweep and scenario parse is a shared
// base flag, a dimension flag, a command flag mapped to the spec field
// it fills, or a listed command option; and every spec.Base field no
// flag reaches is a listed spec-only field. (That every spec.Dim field
// has a row of the axis table is checked in package spec.)
func TestSweepFlagsMatchSpecFields(t *testing.T) {
	dimFields := jsonTags(t, spec.Dim{})
	names, _ := spec.DimFlags(flag.NewFlagSet("sweep", flag.ContinueOnError))
	want := map[string]bool{}
	for field := range dimFields {
		want[flagNameFor(field)] = true
	}
	if len(names) != len(dimFields) || len(want) != len(dimFields) {
		t.Errorf("%d dimension flags %v for %d spec.Dim fields", len(names), names, len(dimFields))
	}
	for _, name := range names {
		if !want[name] {
			t.Errorf("flag -%s is not the naming rule's flag for any spec.Dim field", name)
		}
	}

	baseFields := jsonTags(t, spec.Base{})
	flagged := map[string]bool{}
	for flagName, field := range baseFlagFields {
		flagged[field] = true
		if field == "" {
			continue // File-level fields (seed)
		}
		if !baseFields[field] {
			t.Errorf("base flag -%s maps to %q, which is not a spec.Base field", flagName, field)
		}
		if want := flagNameFor(field); flagName != want {
			t.Errorf("base flag -%s does not follow the naming rule for %q (want -%s)", flagName, field, want)
		}
	}

	sweepFlags := flag.NewFlagSet("sweep", flag.ContinueOnError)
	defineGridFlags(sweepFlags)
	scenarioFlags := flag.NewFlagSet("scenario", flag.ContinueOnError)
	defineScenarioFlags(scenarioFlags)
	for _, c := range []struct {
		fs      *flag.FlagSet
		fields  map[string][]string // a command flag → the spec.Base fields it fills
		options []string
	}{
		{
			fs:      sweepFlags,
			fields:  map[string][]string{"base": {"kind"}, "distance": {"distance"}, "sizedist": {"size_dist"}},
			options: append([]string{"sample", "cpuprofile", "memprofile"}, names...), // File.Sample, profiles, dimensions
		},
		{
			fs: scenarioFlags,
			fields: map[string][]string{
				"poisson": {"poisson_rate"}, "train": {"train"}, "shards": {"shards"},
				"faults": {"faults", "fault_plan"},
			},
			options: []string{"reps", "workers", "csv", "cpuprofile", "memprofile"},
		},
	} {
		// Walk what the command parses, profile flags included.
		stop, err := parseProfiled(c.fs, nil)
		if err != nil {
			t.Fatal(err)
		}
		stop()
		listed := map[string]bool{}
		for _, name := range c.options {
			listed[name] = true
		}
		for name, fields := range c.fields {
			listed[name] = true
			for _, field := range fields {
				flagged[field] = true
				if !baseFields[field] {
					t.Errorf("%s flag -%s maps to %q, which is not a spec.Base field", c.fs.Name(), name, field)
				}
			}
		}
		for name := range baseFlagFields {
			listed[name] = true
		}
		c.fs.VisitAll(func(f *flag.Flag) {
			if !listed[f.Name] {
				t.Errorf("%s flag -%s is neither a base flag, a spec field's flag nor a listed option", c.fs.Name(), f.Name)
			}
		})
		for name := range listed {
			if c.fs.Lookup(name) == nil {
				t.Errorf("%s has no flag -%s, which this test lists", c.fs.Name(), name)
			}
		}
	}

	// Base fields with no flag must be intentional: spec-file-only
	// knobs. Keep this list in sync when extending either side.
	specOnly := map[string]bool{
		"population": true, "scheduler": true, "max_circuits": true,
		"max_memory_bytes": true, "kill_policy": true,
	}
	for field := range baseFields {
		if !flagged[field] && !specOnly[field] {
			t.Errorf("spec.Base field %q has neither a flag nor a spec-only exemption", field)
		}
	}
	for field := range specOnly {
		if !baseFields[field] {
			t.Errorf("spec-only exemption %q is not a spec.Base field", field)
		}
		if flagged[field] {
			t.Errorf("spec-only exemption %q actually has a flag", field)
		}
	}
}

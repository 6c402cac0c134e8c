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

// TestSweepFlagsMatchSpecFields is the drift test the spec schema
// demands: every dimension axis in the wire schema has exactly one
// sweep CLI flag, named from its JSON field by the naming rule, and
// every base flag maps onto a real spec.Base field. (That every
// spec.Dim field has a row of the axis table is checked in package
// spec.)
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
	for flagName, field := range baseFlagFields {
		if field == "" {
			continue // File-level fields (seed)
		}
		if !baseFields[field] {
			t.Errorf("base flag -%s maps to %q, which is not a spec.Base field", flagName, field)
		}
		if want := flagNameFor(field); flagName != want && flagName != "base" {
			t.Errorf("base flag -%s does not follow the naming rule for %q (want -%s)", flagName, field, want)
		}
	}

	// Base fields with no flag must be intentional: spec-file-only
	// knobs. Keep this list in sync when extending either side.
	specOnly := map[string]bool{
		"population": true, "poisson_rate": true, "train": true,
		"shards": true, "scheduler": true, "max_circuits": true,
		"max_memory_bytes": true, "kill_policy": true,
		"faults": true, "fault_plan": true,
	}
	flagged := map[string]bool{}
	for _, field := range baseFlagFields {
		flagged[field] = true
	}
	for field := range baseFields {
		if !flagged[field] && !specOnly[field] {
			t.Errorf("spec.Base field %q has neither a sweep flag nor a spec-only exemption", field)
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

package spec

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"circuitstart/internal/scenario"
)

// axisCandidates holds flag elements for every row of the axis table,
// chosen to sit close together: values that round to one label, the
// same value spelled twice, and values a worker could not run.
var axisCandidates = map[string][]string{
	"policies":        {"circuitstart", "slowstart", "backtap", "fixed"},
	"hopcounts":       {"1", "2", "3", "8", "9"},
	"bandwidths_mbps": {"8", "8.0", "8.001", "8.004", "7.999", "0.5", "0.50001", "0.57", "16.5", "1000", "999.999", "1e-7"},
	"gammas":          {"2", "2.0", "2.0000001", "0.5"},
	"sizes_bytes":     {"999", "1000", "1001", "1499", "1500", "999995", "999999", "1000000", "1000001", "1004000"},
	"size_dists":      {"fixed:1000", "fixed:1e3", "1000", "lognormal:1000:0.5", "lognormal:1000:0.50"},
	"counts":          {"1", "2", "3"},
	"trains":          {"0", "1", "8"},
	"shardcounts":     {"0", "1", "2"},
	"faults":          {"none", "flaky", "hang"},
	"schedulers":      {"fifo", "ewma"},
	"seeds":           {"1", "01", "2"},
}

// TestAxisTableCoversDim fails when a spec.Dim field has no row of the
// axis table, or two, or when a row's list is not the field it names.
func TestAxisTableCoversDim(t *testing.T) {
	rows := map[string]int{}
	for _, a := range axes {
		field, _ := a.doc()
		rows[field]++
		cands := axisCandidates[field]
		if len(cands) == 0 {
			t.Errorf("row %q has no axisCandidates entry", field)
			continue
		}
		var d Dim
		if err := a.set(&d, cands[0]); err != nil {
			t.Fatalf("row %q: %v", field, err)
		}
		data, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		if prefix := fmt.Sprintf(`{%q:[`, field); !strings.HasPrefix(string(data), prefix) || strings.Count(string(data), ":[") != 1 {
			t.Errorf("row %q fills %s", field, data)
		}
	}
	rt := reflect.TypeOf(Dim{})
	for i := 0; i < rt.NumField(); i++ {
		field, _, _ := strings.Cut(rt.Field(i).Tag.Get("json"), ",")
		if rows[field] != 1 {
			t.Errorf("spec.Dim field %q has %d rows in the axis table, want 1", field, rows[field])
		}
	}
}

// TestAxisLabelsDetermineValues walks every row on both base kinds and
// requires that two accepted values sharing a label render the same
// point scenario: the serve daemon's cache keys a point on its labels,
// so a label naming two scenarios would replay one's rows for the other.
func TestAxisLabelsDetermineValues(t *testing.T) {
	bases := []Base{
		{Kind: "trace"},
		{Kind: "population", Relays: 8, Circuits: 2, SizeBytes: 20000, Switches: 2},
	}
	for _, a := range axes {
		field, _ := a.doc()
		accepted := 0
		for _, base := range bases {
			byLabel := map[string]scenario.Scenario{}
			first := map[string]string{}
			for _, c := range axisCandidates[field] {
				var d Dim
				if a.set(&d, c) != nil {
					continue
				}
				data, err := Marshal(&File{Base: base, Dimensions: []Dim{d}})
				if err != nil {
					t.Fatal(err)
				}
				f, err := Parse(data)
				if err != nil {
					continue
				}
				accepted++
				sw, err := f.Sweep()
				if err != nil {
					t.Fatal(err)
				}
				pts, err := sw.Points()
				if err != nil {
					t.Fatalf("%s %s on %s: %v", field, c, base.Kind, err)
				}
				label, sc := pts[0].Coords[0], pts[0].Scenario
				if prev, ok := byLabel[label]; ok && !reflect.DeepEqual(prev, sc) {
					t.Errorf("%s on the %s base: %s and %s share the label %q but differ",
						field, base.Kind, first[label], c, label)
				}
				byLabel[label], first[label] = sc, c
			}
		}
		if accepted < 4 {
			t.Errorf("%s: %d candidates accepted on the two bases, want at least 4", field, accepted)
		}
	}
}

// TestHopAxisReplacesBaseHops checks that base.hops above base.relays
// is refused only when no hopcounts axis replaces it on every point.
func TestHopAxisReplacesBaseHops(t *testing.T) {
	if _, err := Parse([]byte(`{"base": {"kind": "population", "relays": 2}, "dimensions": [{"hopcounts": [1, 2]}]}`)); err != nil {
		t.Errorf("hop axis within the relays refused: %v", err)
	}
	if _, err := Parse([]byte(`{"base": {"kind": "population", "relays": 2}, "dimensions": [{"seeds": [1]}]}`)); err == nil {
		t.Error("default base.hops 3 over 2 relays accepted")
	}
}

package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"

	"circuitstart/internal/spec"
	"circuitstart/internal/sweep"
)

var updateAxes = flag.Bool("update-axes", false, "rewrite testdata/golden_axes.txt from this build")

// popFlags and popBase are the same small population base as sweep
// flags and as a spec base block.
const (
	popFlags = "-base population -relays 8 -circuits 2 -size 20000 -horizon 30s "
	popBase  = `"base": {"kind": "population", "relays": 8, "circuits": 2, "size_bytes": 20000, "horizon_sec": 30}, `
)

// axisGoldenCases is one tiny grid per sweep axis, with both base kinds
// for the two axes whose mutator depends on the kind, each written once
// as sweep flags and once as the equivalent spec.
var axisGoldenCases = []struct{ args, spec string }{
	{"-policies circuitstart,slowstart", `{"dimensions": [{"policies": ["circuitstart", "slowstart"]}]}`},
	{"-hopcounts 2,4", `{"dimensions": [{"hopcounts": [2, 4]}]}`},
	{popFlags + "-hopcounts 2,3", `{` + popBase + `"dimensions": [{"hopcounts": [2, 3]}]}`},
	{"-bandwidths 8,16.5", `{"dimensions": [{"bandwidths_mbps": [8, 16.5]}]}`},
	{popFlags + "-bandwidths 8,16", `{` + popBase + `"dimensions": [{"bandwidths_mbps": [8, 16]}]}`},
	{"-gammas 2,4", `{"dimensions": [{"gammas": [2, 4]}]}`},
	{popFlags + "-sizes 10000,30000", `{` + popBase + `"dimensions": [{"sizes_bytes": [10000, 30000]}]}`},
	{popFlags + "-sizedists fixed:10000,lognormal:10000:0.5", `{` + popBase + `"dimensions": [{"size_dists": ["fixed:10000", "lognormal:10000:0.5"]}]}`},
	{popFlags + "-counts 1,3", `{` + popBase + `"dimensions": [{"counts": [1, 3]}]}`},
	{popFlags + "-trains 0,8", `{` + popBase + `"dimensions": [{"trains": [0, 8]}]}`},
	{popFlags + "-switches 2 -shardcounts 0,2", `{"base": {"kind": "population", "relays": 8, "circuits": 2, "size_bytes": 20000, "horizon_sec": 30, "switches": 2}, "dimensions": [{"shardcounts": [0, 2]}]}`},
	{popFlags + "-faults none,flaky", `{` + popBase + `"dimensions": [{"faults": ["none", "flaky"]}]}`},
	{popFlags + "-schedulers fifo,ewma", `{` + popBase + `"dimensions": [{"schedulers": ["fifo", "ewma"]}]}`},
	{"-seeds 1,2", `{"dimensions": [{"seeds": [1, 2]}]}`},
}

// TestAxesGolden pins what every sweep axis renders to: for each case
// the flag-built and the spec-built grid must agree on the canonical
// spec bytes and the CSV rows, and the canonical bytes, dimension
// names, coordinates, point keys and rows must match
// testdata/golden_axes.txt. Regenerate with
//
//	go test ./cmd/circuitsim -run TestAxesGolden -update-axes
//
// only when an axis's meaning changes on purpose.
func TestAxesGolden(t *testing.T) {
	var got bytes.Buffer
	for _, c := range axisGoldenCases {
		fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		gridSpec := defineGridFlags(fs)
		if err := fs.Parse(strings.Fields(c.args)); err != nil {
			t.Fatalf("%s: %v", c.args, err)
		}
		fromFlags, err := gridSpec()
		if err != nil {
			t.Fatalf("%s: %v", c.args, err)
		}
		fromSpec, err := spec.Parse([]byte(`{"name": "cli-sweep", ` + strings.TrimPrefix(c.spec, "{")))
		if err != nil {
			t.Fatalf("%s: %v", c.spec, err)
		}
		canon, err := spec.Marshal(fromFlags)
		if err != nil {
			t.Fatal(err)
		}
		canonSpec, err := spec.Marshal(fromSpec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(canon, canonSpec) {
			t.Fatalf("%s: flags and spec disagree:\n--- flags ---\n%s--- spec ---\n%s", c.args, canon, canonSpec)
		}
		csv := axisCSV(t, fromFlags)
		if csvSpec := axisCSV(t, fromSpec); csv != csvSpec {
			t.Fatalf("%s: flags and spec rows differ:\n--- flags ---\n%s--- spec ---\n%s", c.args, csv, csvSpec)
		}

		sw, err := fromFlags.Sweep()
		if err != nil {
			t.Fatal(err)
		}
		pts, err := sw.Points()
		if err != nil {
			t.Fatal(err)
		}
		hash, err := fromFlags.BaseHash()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "## %s\n%sdimensions: %s\n", c.args, canon, strings.Join(sw.DimensionNames(), " "))
		for _, pt := range pts {
			fmt.Fprintf(&got, "point %d [%s] %s\n", pt.Index, strings.Join(pt.Coords, " "),
				spec.PointKey(hash, sw.DimensionNames(), pt.Coords))
		}
		got.WriteString(csv)
	}

	const golden = "testdata/golden_axes.txt"
	if *updateAxes {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("axis rendering drifted from %s\n--- got ---\n%s", golden, got.Bytes())
	}
}

// axisCSV runs f's grid and returns its CSV rows.
func axisCSV(t *testing.T, f *spec.File) string {
	t.Helper()
	sw, err := f.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := (sweep.Engine{Workers: 2}).Run(sw, sweep.NewCSVSink(&buf)); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

package main

import (
	"bytes"
	"flag"
	"io"
	"strings"
	"testing"

	"circuitstart/internal/spec"
)

// sweepFlagSeeds is FuzzSweepFlags's seed corpus: at least one command
// line per axis flag (TestFuzzSeedsCoverEveryAxis), plus refusals.
var sweepFlagSeeds = []string{
	"-gammas 2,4 -bandwidths 8,16",
	"-hopcounts 1,3 -distance 1",
	"-policies circuitstart,slowstart -arms circuitstart",
	"-base population -relays 8 -circuits 2 -counts 1,2",
	"-base population -sizes 1000,20000 -spread 0s",
	"-base population -sizedist lognormal:500000:0.8 -trains 0,8",
	"-base population -switches 4 -shardcounts 1,2",
	"-base population -faults none,flaky -schedulers fifo,ewma",
	"-base population -sizedists fixed:1000 -download -horizon 30s",
	"-seeds 1,2,3 -sample 2",
	"-bandwidths 0",
	"-gammas 0",
	"-base trace -relays 8 -gammas 2",
	"-sizes 1000000,1004000 -bandwidths 8,8.001",
	"-base population -relays 8 -hopcounts 2,9 -shardcounts 1",
}

// FuzzSweepFlags round-trips the sweep flag table: any command line
// the sweep flags accept renders to a spec.File whose canonical form
// parses back to the same bytes (the Marshal(Parse(x)) fixed point the
// spec codec's own fuzzer checks), and every point of a grid that small
// expands, because a grid the CLI accepts must not fail later on a
// worker.
func FuzzSweepFlags(f *testing.F) {
	for _, args := range sweepFlagSeeds {
		f.Add(args)
	}
	f.Fuzz(func(t *testing.T, args string) {
		fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		gridSpec := defineGridFlags(fs)
		if fs.Parse(strings.Fields(args)) != nil {
			return
		}
		file, err := gridSpec()
		if err != nil {
			return
		}
		canon, err := spec.Marshal(file)
		if err != nil {
			t.Fatalf("Marshal of a flag-built spec: %v\nargs: %q", err, args)
		}
		again, err := spec.Parse(canon)
		if err != nil {
			t.Fatalf("canonical form does not parse: %v\nargs: %q\ncanonical:\n%s", err, args, canon)
		}
		canon2, err := spec.Marshal(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(canon, canon2) {
			t.Fatalf("canonical form is not a fixed point:\nargs: %q\n--- first ---\n%s--- second ---\n%s", args, canon, canon2)
		}
		sw, err := again.Sweep()
		if err != nil {
			t.Fatalf("parsed spec does not render: %v\nargs: %q", err, args)
		}
		points := 1
		for _, d := range sw.Dimensions {
			if points *= len(d.Values); points > 64 {
				return
			}
		}
		if _, err := sw.Points(); err != nil {
			t.Fatalf("accepted grid does not expand: %v\nargs: %q", err, args)
		}
	})
}

// TestFuzzSeedsCoverEveryAxis fails when an axis flag has no
// FuzzSweepFlags seed, so a new table row is fuzzed from its first run.
func TestFuzzSeedsCoverEveryAxis(t *testing.T) {
	seeded := map[string]bool{}
	for _, args := range sweepFlagSeeds {
		for _, word := range strings.Fields(args) {
			seeded[word] = true
		}
	}
	names, _ := spec.DimFlags(flag.NewFlagSet("sweep", flag.ContinueOnError))
	for _, name := range names {
		if !seeded["-"+name] {
			t.Errorf("no FuzzSweepFlags seed passes -%s", name)
		}
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"slices"
	"strings"
	"testing"
	"time"

	"circuitstart/internal/faults"
	"circuitstart/internal/scenario"
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
// FuzzSweepFlags seed, or a scenario flag no FuzzScenarioFlags seed, so
// a new table row or flag is fuzzed from its first run.
func TestFuzzSeedsCoverEveryAxis(t *testing.T) {
	axisFlags, _ := spec.DimFlags(flag.NewFlagSet("sweep", flag.ContinueOnError))
	scenarioFlags := flag.NewFlagSet("scenario", flag.ContinueOnError)
	defineScenarioFlags(scenarioFlags)
	var scenarioNames []string
	scenarioFlags.VisitAll(func(fl *flag.Flag) { scenarioNames = append(scenarioNames, fl.Name) })
	for _, c := range []struct {
		fuzz  string
		seeds []string
		flags []string
	}{
		{"FuzzSweepFlags", sweepFlagSeeds, axisFlags},
		{"FuzzScenarioFlags", scenarioFlagSeeds, scenarioNames},
	} {
		seeded := map[string]bool{}
		for _, args := range c.seeds {
			for _, word := range strings.Fields(args) {
				seeded[word] = true
			}
		}
		for _, name := range c.flags {
			if !seeded["-"+name] {
				t.Errorf("no %s seed passes -%s", c.fuzz, name)
			}
		}
	}
}

// scenarioFlagSeeds is FuzzScenarioFlags's seed corpus: every flag of
// the scenario command (TestFuzzSeedsCoverEveryAxis), plus refusals.
var scenarioFlagSeeds = []string{
	"-circuits 4 -relays 10 -size 100000 -poisson 40 -reps 2 -workers 4 -seed 42",
	"-circuits 6 -relays 16 -switches 4 -size 100000 -spread 200ms -download -seed 4",
	"-relays 24 -switches 5 -train 2 -shards 2 -arms circuitstart,slowstart",
	"-relays 10 -circuits 3 -faults flaky -horizon 30s -csv cdf.csv",
	"-relays 12 -switches 3 -faults " + shardedFaultsSpec,
	"-circuits 1 -relays 2 -hops 1 -size 10000",
	"-relays 4 -hops 5 -circuits 2",
	"-spread 0s -switches 0 -horizon 1.5s",
	"-spread 249ns -horizon 15ns",
	"-poisson 5 -spread 50ms",
	"-poisson -3",
	"-relays 0",
	"-horizon 0s",
	"-arms ,",
	"-shards 2",
	"-switches -1",
}

// shardedFaultsSpec is the one fault spec file FuzzScenarioFlags reads:
// a fuzzed path could name /dev/zero.
const shardedFaultsSpec = "testdata/sharded_faults.json"

// FuzzScenarioFlags checks the scenario command's front door: any
// command line its flags accept fills a spec.File that renders; that
// file's canonical form decodes and renders back to the same bytes; and
// the rendered scenario carries every base flag's value, default or
// set, so no value the user gave is replaced by a default on the way.
func FuzzScenarioFlags(f *testing.F) {
	for _, args := range scenarioFlagSeeds {
		f.Add(args)
	}
	f.Fuzz(func(t *testing.T, args string) {
		fs := flag.NewFlagSet("scenario", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		scenarioSpec, _ := defineScenarioFlags(fs)
		if fs.Parse(strings.Fields(args)) != nil {
			return
		}
		get := func(name string) any { return fs.Lookup(name).Value.(flag.Getter).Get() }
		// Rendering is linear in these, so large values only cost memory.
		if get("relays").(int) > 4096 || get("switches").(int) > 4096 || get("circuits").(int) > 4096 {
			return
		}
		if fa := get("faults").(string); fa != "" && fa != shardedFaultsSpec && !slices.Contains(faults.PresetNames(), fa) {
			return
		}
		file, err := scenarioSpec()
		if err != nil {
			return
		}
		sc, err := file.Scenario()
		if err != nil {
			return
		}
		canon, err := spec.Marshal(file)
		if err != nil {
			t.Fatalf("Marshal of a rendered flag-built spec: %v\nargs: %q", err, args)
		}
		var again spec.File
		if err := json.Unmarshal(canon, &again); err != nil {
			t.Fatalf("canonical form does not decode: %v\nargs: %q\ncanonical:\n%s", err, args, canon)
		}
		if _, err := again.Scenario(); err != nil {
			t.Fatalf("canonical form does not render: %v\nargs: %q\ncanonical:\n%s", err, args, canon)
		}
		canon2, err := spec.Marshal(&again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(canon, canon2) {
			t.Fatalf("canonical form is not a fixed point:\nargs: %q\n--- first ---\n%s--- second ---\n%s", args, canon, canon2)
		}

		arrival := scenario.Arrival{}
		if rate := get("poisson").(float64); rate > 0 {
			arrival = scenario.Arrival{Kind: scenario.ArrivePoisson, Rate: rate}
		} else if spread := get("spread").(time.Duration); spread > 0 {
			arrival = scenario.Arrival{Kind: scenario.ArriveUniform, Spread: spread}
		}
		switches := 0
		if sc.Topology.Fabric != nil {
			switches = len(sc.Topology.Fabric.Switches)
		}
		arms := make([]string, len(sc.Arms))
		for i, a := range sc.Arms {
			arms[i] = a.Name
		}
		// The horizon travels as float seconds: exact to the nanosecond
		// below 2^50 ns (13 days), and to a part in 2^50 above.
		horizon, wantHorizon := time.Duration(sc.Horizon), get("horizon").(time.Duration)
		if horizon-wantHorizon > wantHorizon>>50 || wantHorizon-horizon > wantHorizon>>50 {
			t.Fatalf("-horizon %v renders as %v\nargs: %q", wantHorizon, horizon, args)
		}
		for _, c := range []struct {
			flag      string
			got, want any
		}{
			{"seed", sc.Seed, get("seed")},
			{"arms", strings.Join(arms, ","), strings.Join(splitList(get("arms").(string)), ",")},
			{"hops", sc.Circuits.Hops, get("hops")},
			{"relays", sc.Topology.Population.N, get("relays")},
			{"circuits", sc.Circuits.Count, get("circuits")},
			{"switches", switches, get("switches")},
			{"size", int64(sc.Circuits.TransferSize), get("size")},
			{"download", sc.Circuits.Download, get("download")},
			{"spread and poisson", sc.Circuits.Arrival, arrival},
			{"train", sc.TrainSize, get("train")},
			{"shards", sc.Shards, get("shards")},
		} {
			if c.got != c.want {
				t.Fatalf("-%s %v renders as %v\nargs: %q", c.flag, c.want, c.got, args)
			}
		}
	})
}

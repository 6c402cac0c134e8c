package main

import (
	"bytes"
	"io"
	"os"
	"testing"
)

// goldenScenarioArgs is the seeded run whose byte-exact output is
// committed as testdata/golden_scenario.txt. The CI golden job runs
// the built binary with these same flags and diffs against the
// fixture; this test does the equivalent in-process so developers
// catch drift before pushing. Poisson arrivals, two replications and
// four workers exercise the seed-substream and aggregation-order
// machinery, so a determinism break anywhere in the runner shows up
// here as a byte difference.
var goldenScenarioArgs = []string{
	"-circuits", "4", "-relays", "10", "-size", "100000",
	"-poisson", "40", "-reps", "2", "-workers", "4", "-seed", "42",
}

// captureStdout runs fn with os.Stdout redirected into a buffer.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		var buf bytes.Buffer
		io.Copy(&buf, r)
		done <- buf.String()
	}()
	ferr := fn()
	w.Close()
	os.Stdout = old
	out := <-done
	r.Close()
	if ferr != nil {
		t.Fatal(ferr)
	}
	return out
}

// TestGoldenScenarioOutput pins the byte-identical-determinism
// contract: the seeded scenario run must reproduce the committed
// fixture exactly. If a change legitimately alters seeded outputs
// (e.g. a new RNG stream), regenerate with:
//
//	go run ./cmd/circuitsim scenario -circuits 4 -relays 10 \
//	  -size 100000 -poisson 40 -reps 2 -workers 4 -seed 42 \
//	  > cmd/circuitsim/testdata/golden_scenario.txt
//
// and call out the determinism break in the change description.
func TestGoldenScenarioOutput(t *testing.T) {
	want, err := os.ReadFile("testdata/golden_scenario.txt")
	if err != nil {
		t.Fatal(err)
	}
	got := captureStdout(t, func() error { return runScenario(goldenScenarioArgs) })
	if got != string(want) {
		t.Errorf("seeded scenario output drifted from testdata/golden_scenario.txt\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// goldenShardedArgs is the sharded determinism fixture's flag set,
// minus -shards (the matrix test appends it). Faults, cell trains,
// Poisson arrivals and two workers all ride along, so the fixture pins
// the sharded engine's full surface, not just the quiet data plane.
var goldenShardedArgs = []string{
	"-circuits", "4", "-relays", "24", "-switches", "8",
	"-size", "100000", "-poisson", "40", "-reps", "2",
	"-workers", "2", "-seed", "42", "-train", "2",
	"-faults", "testdata/sharded_faults.json",
}

// TestGoldenShardedOutput pins the sharded engine's determinism
// contract twice over: the output must match the committed fixture
// byte for byte AND must not change with the shard count. If a change
// legitimately alters sharded outputs, regenerate with:
//
//	go run ./cmd/circuitsim scenario -circuits 4 -relays 24 \
//	  -switches 8 -shards 1 -size 100000 -poisson 40 -reps 2 \
//	  -workers 2 -seed 42 -train 2 \
//	  -faults cmd/circuitsim/testdata/sharded_faults.json \
//	  > cmd/circuitsim/testdata/golden_sharded.txt
//
// and call out the determinism break in the change description.
func TestGoldenShardedOutput(t *testing.T) {
	want, err := os.ReadFile("testdata/golden_sharded.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []string{"1", "2", "4", "8"} {
		args := append(append([]string{}, goldenShardedArgs...), "-shards", shards)
		got := captureStdout(t, func() error { return runScenario(args) })
		if got != string(want) {
			t.Errorf("sharded output at -shards %s drifted from testdata/golden_sharded.txt\n--- got ---\n%s--- want ---\n%s", shards, got, want)
		}
	}
}

// TestShardedOddRingOutput is the regression test for a determinism bug
// the all-cut fixtures above could not see: on a five-switch ring a
// plan leaves some trunks inside a shard and cuts others, and two trunk
// deliveries into one switch at the same instant used to fire in an
// order that depended on which of the two was imported at a barrier.
// This seeded run differed between -shards 1 and -shards 2.
func TestShardedOddRingOutput(t *testing.T) {
	args := []string{
		"-circuits", "6", "-relays", "24", "-switches", "5",
		"-size", "100000", "-poisson", "40", "-reps", "2",
		"-workers", "2", "-seed", "4", "-train", "2",
		"-faults", "testdata/sharded_faults.json",
	}
	run := func(shards string) string {
		return captureStdout(t, func() error { return runScenario(append(append([]string{}, args...), "-shards", shards)) })
	}
	want := run("1")
	for _, shards := range []string{"2", "3", "4"} {
		if got := run(shards); got != want {
			t.Errorf("output at -shards %s differs from -shards 1\n--- got ---\n%s--- want ---\n%s", shards, got, want)
		}
	}
}

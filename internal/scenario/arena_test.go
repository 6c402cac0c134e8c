package scenario

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"circuitstart/internal/core"
	"circuitstart/internal/faults"
	"circuitstart/internal/netem"
	"circuitstart/internal/sim"
	"circuitstart/internal/units"
	"circuitstart/internal/workload"
)

// drainIdle empties the process-wide idle list, so the next Run starts
// on fresh arenas.
func drainIdle() {
	idle.mu.Lock()
	idle.pools, idle.old = nil, nil
	idle.mu.Unlock()
}

// resultBytes renders everything seeded a Result holds — the text
// tables, every per-circuit outcome with its cwnd trace, and the
// per-arm ledgers with their raw samples — so two Results compare as
// bytes. The shard run stats are left out: they hold wall-clock time.
func resultBytes(t *testing.T, res *Result) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := res.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Arms {
		fmt.Fprintf(&b, "arm %s incomplete %d ttlb %v\n", a.Name, a.Incomplete, a.TTLB.Sorted())
		for _, o := range a.Circuits {
			trace := o.Trace
			o.Trace = nil
			fmt.Fprintf(&b, "%+v\n", o)
			if trace != nil {
				fmt.Fprintf(&b, "trace %v\n", trace.Points())
			}
		}
		n := a.Net
		fmt.Fprintf(&b, "net %d %d %d %+v %+v\n", n.UnknownDst, n.Unroutable, n.SchedDrops, n.Resource, n.Trunks)
		c := a.Churn
		fmt.Fprintf(&b, "churn %d %d %d %d %d\n", c.Built, c.TornDown, c.Rebuilt, c.Aborted, c.Rejected)
		if c.Lifetime != nil {
			fmt.Fprintf(&b, "lifetimes %v\n", c.Lifetime.Sorted())
		}
		r := a.Resilience
		fmt.Fprintf(&b, "resilience %d %d %d %d %v %v %v\n", r.Stalls, r.Recoveries, r.Retries, r.Abandoned, r.Downtime, r.Active, r.GoodputBytes)
		if r.TTR != nil {
			fmt.Fprintf(&b, "ttr %v\n", r.TTR.Sorted())
		}
	}
	return b.Bytes()
}

// flakyShardedScenario is the sharded churn workhorse at 4 shards under
// the flaky fault preset. The sharded engine rejects endpoint recovery,
// so the preset's recovery policy is switched off.
func flakyShardedScenario(t *testing.T) Scenario {
	t.Helper()
	sc := shardedChurnScenario(4)
	plan, err := faults.Preset("flaky", sc.RelayIDs())
	if err != nil {
		t.Fatal(err)
	}
	plan.Recovery = faults.Recovery{}
	sc.Faults = plan
	sc.Replications = 1
	return sc
}

// flakyChurnScenario is the single-clock lifecycle engine under the
// flaky fault preset with endpoint recovery armed: scheduled teardowns,
// a relay failure and stall recovery tear hops down mid-transfer, so the
// sender buffers those hops hand back — rings and queues that held live
// cells — serve the circuits built after them.
func flakyChurnScenario(t *testing.T) Scenario {
	t.Helper()
	sc := churnScenario()
	plan, err := faults.Preset("flaky", sc.RelayIDs())
	if err != nil {
		t.Fatal(err)
	}
	sc.Faults = plan
	sc.Replications = 1
	return sc
}

// cutOffTrainScenario runs 2 MB transfers in 8-cell trains on a routed
// ring and stops them at a 300 ms horizon, with frames in flight on
// every link and cells held for retransmission. The teardown linger
// turns the lifecycle engine on, so the trial fills the download slab.
func cutOffTrainScenario(t *testing.T) Scenario {
	t.Helper()
	bp := workload.DefaultBackboneParams(16, 4)
	spec, err := workload.GenerateBackbone(bp)
	if err != nil {
		t.Fatal(err)
	}
	return Scenario{
		Name:     "cut-off-trains",
		Seed:     5,
		Topology: Topology{Population: &bp.Relays, Fabric: &spec},
		Circuits: CircuitSet{
			Count:        6,
			TransferSize: 2 * units.Megabyte,
			Arrival:      Arrival{Kind: ArriveUniform, Spread: 50 * time.Millisecond},
		},
		Arms:          []Arm{{Name: "circuitstart"}},
		CircuitEvents: CircuitEvents{TeardownDelay: 10 * time.Millisecond},
		TrainSize:     8,
		Horizon:       300 * sim.Millisecond,
	}
}

// panickingScenario panics mid-run, with frames and cells in flight: a
// slow-degrade factor small enough to round the relay's access rate to
// zero passes validation, and SetRate(0) panics at the degrade instant.
func panickingScenario(t *testing.T) Scenario {
	t.Helper()
	sc := cutOffTrainScenario(t)
	sc.Faults.Degrades = []faults.Degrade{{
		Relay: workload.RelayID(0), Mode: faults.DegradeSlow,
		At: 100 * sim.Millisecond, RateFactor: 1e-300,
	}}
	return sc
}

// runPanicking runs panickingScenario and checks that it failed by a
// panic, not by validation.
func runPanicking(t *testing.T) {
	t.Helper()
	_, err := Runner{Workers: 1}.Run(panickingScenario(t))
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("want a trial that panics mid-run, got err = %v", err)
	}
}

// TestArenaReuseIndependence pins the contract that lets arenas outlive
// a Run: a Result is the same bytes on fresh arenas and on arenas that
// earlier Runs left behind on the idle list — here after a panicking
// trial, a 4-shard churn trial under the flaky preset and a trained
// trial cut off at its horizon with frames in flight — and each target
// on the arenas the targets before it left, among them a single-clock
// churn trial whose torn-down hops returned their sender buffers
// mid-trial. A pool that served the panicking trial must never reach
// the list.
func TestArenaReuseIndependence(t *testing.T) {
	targets := []struct {
		name string
		sc   func(*testing.T) Scenario
	}{
		{"sharded-flaky", flakyShardedScenario},
		{"churn-flaky", flakyChurnScenario},
		{"cut-off-trains", cutOffTrainScenario},
		{"static", func(*testing.T) Scenario { return testScenario() }},
	}
	run := func(t *testing.T, sc Scenario) []byte {
		t.Helper()
		res, err := Runner{Workers: 1}.Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		return resultBytes(t, res)
	}
	fresh := make([][]byte, len(targets))
	for i, tg := range targets {
		drainIdle()
		fresh[i] = run(t, tg.sc(t))
	}

	drainIdle()
	runPanicking(t)
	if n := IdleArenas().IdlePools; n != 0 {
		t.Fatalf("the panicked trial's pool was returned: %d idle pools", n)
	}
	run(t, flakyShardedScenario(t))
	if !bytes.Equal(run(t, cutOffTrainScenario(t)), fresh[2]) {
		t.Fatal("cut-off-trains differs on the arenas a sharded trial left")
	}
	if r := IdleArenas(); r.IdlePools != 1 || r.Frames == 0 || r.Cells == 0 {
		t.Fatalf("dirtying runs left %+v, want one pool holding frames and cells", r)
	}

	for i, tg := range targets {
		if got := run(t, tg.sc(t)); !bytes.Equal(got, fresh[i]) {
			t.Errorf("%s differs on reused arenas:\nfresh:\n%s\nreused:\n%s", tg.name, fresh[i], got)
		}
	}
}

// traceScenario is the shape of one sweep grid point: a single
// backlogged circuit over three explicit relays, cwnd traced.
func traceScenario() Scenario {
	relays := []RelaySpec{
		{ID: "relay-1", Access: netem.Symmetric(units.Mbps(100), 5*time.Millisecond, 0)},
		{ID: "relay-2", Access: netem.Symmetric(units.Mbps(8), 5*time.Millisecond, 0)},
		{ID: "relay-3", Access: netem.Symmetric(units.Mbps(100), 5*time.Millisecond, 0)},
	}
	return Scenario{
		Name:     "trace-point",
		Seed:     42,
		Topology: Topology{Relays: relays},
		Circuits: CircuitSet{
			Paths:        [][]netem.NodeID{{"relay-1", "relay-2", "relay-3"}},
			TransferSize: 4 * units.Megabyte,
		},
		Arms:           []Arm{{Name: "trace", Transport: core.TransportOptions{Gamma: 4}}},
		ClientAccess:   netem.Symmetric(units.Mbps(100), 5*time.Millisecond, 0),
		Horizon:        2 * sim.Second,
		RunFullHorizon: true,
		Probes:         Probes{TraceCwnd: true},
	}
}

// TestArenaReuseSecondRunAllocation pins what reuse buys a one-trial
// Run — a sweep point or a daemon job: the second Run of the same
// scenario allocates at most half the bytes of the first, which starts
// on fresh arenas.
func TestArenaReuseSecondRunAllocation(t *testing.T) {
	allocated := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := (Runner{Workers: 1}).Run(traceScenario()); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	drainIdle()
	first := allocated()
	second := allocated()
	t.Logf("first Run %d B, second %d B (%.0f %%)", first, second, 100*float64(second)/float64(first))
	if 2*second > first {
		t.Fatalf("second Run allocated %d B, more than half the first Run's %d B", second, first)
	}
}

// TestArenaIdleListBounded pins the retention bound: the idle list
// never holds more than GOMAXPROCS pools, whether pools are given back
// one by one or by concurrent Runs, as concurrent daemon jobs do.
func TestArenaIdleListBounded(t *testing.T) {
	limit := runtime.GOMAXPROCS(0)
	drainIdle()
	for i := 0; i < 2*limit+1; i++ {
		idle.put(&arenaPool{})
	}
	if n := IdleArenas().IdlePools; n != limit {
		t.Fatalf("idle list holds %d pools after %d returns, want GOMAXPROCS = %d", n, 2*limit+1, limit)
	}

	drainIdle()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := testScenario()
			sc.Replications = 4
			if _, err := (Runner{Workers: 2 * limit}).Run(sc); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if n := IdleArenas().IdlePools; n < 1 || n > limit {
		t.Fatalf("idle list holds %d pools after concurrent Runs, want 1..%d", n, limit)
	}
}

// TestArenaFailedTrialPoolDropped pins that a pool which served a
// failed trial never returns to the idle list, even when it served
// good trials first: one worker runs the good arm, then the failing
// one, and nothing is left on the list.
func TestArenaFailedTrialPoolDropped(t *testing.T) {
	drainIdle()
	sc := testScenario()
	sc.Replications = 1
	// Alpha above Beta passes scenario validation and panics in the
	// transport constructor while the trial builds its circuits.
	sc.Arms[1].Transport = core.TransportOptions{Alpha: 9, Beta: 1}
	_, err := Runner{Workers: 1}.Run(sc)
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("want the second arm's trial to panic, got err = %v", err)
	}
	if n := IdleArenas().IdlePools; n != 0 {
		t.Fatalf("the failed trial's pool was returned: %d idle pools", n)
	}
}

// TestArenaIdlePoolsAgeOut pins the release half of the lifetime: a
// pool no Run takes back is dropped after garbage collections, so a
// process that stops running trials gives its working sets back.
func TestArenaIdlePoolsAgeOut(t *testing.T) {
	drainIdle()
	sc := testScenario()
	sc.Replications = 1
	if _, err := (Runner{Workers: 1}).Run(sc); err != nil {
		t.Fatal(err)
	}
	if n := IdleArenas().IdlePools; n != 1 {
		t.Fatalf("%d idle pools after a one-worker Run, want 1", n)
	}
	// The list ages in a finalizer, which runs after each collection.
	deadline := time.Now().Add(10 * time.Second)
	for IdleArenas().IdlePools != 0 {
		if time.Now().After(deadline) {
			t.Fatal("an untaken pool outlived 10 s of garbage collections")
		}
		runtime.GC()
		runtime.Gosched()
	}
}

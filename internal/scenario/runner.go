package scenario

import (
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"circuitstart/internal/arena"
	"circuitstart/internal/core"
	"circuitstart/internal/metrics"
	"circuitstart/internal/netem"
	"circuitstart/internal/sim"
	"circuitstart/internal/units"
	"circuitstart/internal/workload"
)

// Runner executes a Scenario. It expands the scenario into
// Replications × len(Arms) independent trials, runs them on a worker
// pool, and aggregates the outcomes in fixed trial order — so the
// Result is bit-identical for any Workers value.
type Runner struct {
	// Workers is the trial worker-pool size (≤ 0 = runtime.NumCPU()).
	Workers int
}

// Run executes every trial of the scenario and aggregates a Result.
func (r Runner) Run(sc Scenario) (*Result, error) {
	if err := sc.validate(); err != nil {
		return nil, err
	}
	trials := sc.Replications * len(sc.Arms)
	outs := make([][]CircuitOutcome, trials)
	nets := make([]NetStats, trials)
	churns := make([]ChurnStats, trials)
	resils := make([]ResilienceStats, trials)
	errs := make([]error, trials)

	workers := r.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > trials {
		workers = trials
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One arena pool per worker: consecutive trials on this
			// goroutine reuse the same clock event free lists,
			// cell/segment pools and object slabs, so only the first
			// trial pays the full allocation bill. A sharded trial draws
			// one arena per shard from the pool. Determinism is
			// unaffected — trial outputs are pure functions of their
			// seeds, never of which worker's recycled memory they ran in.
			pool := arenaPool{}
			for {
				i := int(next.Add(1)) - 1
				if i >= trials {
					return
				}
				rep, arm := i/len(sc.Arms), i%len(sc.Arms)
				want := 1
				if sc.Shards > want {
					want = sc.Shards
				}
				outs[i], nets[i], churns[i], resils[i], errs[i] = runTrial(sc, sc.Arms[arm], trialSeed(sc.Seed, rep), rep, pool.get(want))
				if errs[i] != nil {
					// A failed (possibly panicked) trial may leave an
					// arena's clock mid-run; start the next trial clean.
					pool = arenaPool{}
				} else {
					pool.resetTrial()
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	res := &Result{Scenario: sc, Arms: make([]ArmResult, len(sc.Arms))}
	for i, a := range sc.Arms {
		res.Arms[i] = ArmResult{Name: a.Name, TTLB: metrics.NewDistribution("ttlb_" + a.Name)}
		if sc.hasChurn() {
			res.Arms[i].Churn.Lifetime = newLifetimeDist(a.Name)
		}
		if sc.Faults.Recovery.Enabled {
			res.Arms[i].Resilience.TTR = newTTRDist(a.Name)
		}
	}
	for i := 0; i < trials; i++ {
		arm := &res.Arms[i%len(sc.Arms)]
		for _, o := range outs[i] {
			arm.Circuits = append(arm.Circuits, o)
			switch {
			case o.Done:
				arm.TTLB.Add(o.TTLB.Seconds())
			case o.Aborted, o.Killed, o.Rejected:
				// Counted in Churn.Aborted / the resource counters, not
				// Incomplete: the teardown (or refusal) was deliberate,
				// not a stalled transfer.
			default:
				arm.Incomplete++
			}
		}
		arm.Net.merge(nets[i])
		arm.Churn.merge(churns[i])
		arm.Resilience.merge(resils[i])
	}
	return res, nil
}

// Run executes the scenario with a default Runner (one worker per CPU).
func Run(sc Scenario) (*Result, error) { return Runner{}.Run(sc) }

// arenaPool hands a worker goroutine as many trial arenas as its next
// trial needs, growing on demand and recycling all of them between
// trials.
type arenaPool struct {
	arenas []*arena.Arena
}

// get returns at least n arenas (the same slice header is reused, so
// callers must not retain it past the trial).
func (p *arenaPool) get(n int) []*arena.Arena {
	for len(p.arenas) < n {
		p.arenas = append(p.arenas, arena.New())
	}
	return p.arenas[:n]
}

// resetTrial rewinds every pooled arena for the next trial.
func (p *arenaPool) resetTrial() {
	for _, ar := range p.arenas {
		ar.ResetTrial()
	}
}

// trialSeed derives replication r's seed substream. Replication 0 uses
// the scenario seed itself, so a single-replication scenario reproduces
// the legacy entry points' outputs exactly.
func trialSeed(seed int64, rep int) int64 {
	if rep == 0 {
		return seed
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/scenario-rep/%d", seed, rep)
	return int64(h.Sum64())
}

// runTrial executes one (arm, replication) pair on its own network. A
// panic in the simulator is converted into an error so one bad trial
// fails the run cleanly instead of killing the worker pool. Scenarios
// with Shards > 0 run on the sharded conservative-lookahead engine;
// every other trial, static or churned, runs on the single-clock
// engine (runChurn).
func runTrial(sc Scenario, arm Arm, seed int64, rep int, ars []*arena.Arena) (out []CircuitOutcome, net NetStats, churn ChurnStats, resil ResilienceStats, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("scenario: arm %q rep %d panicked: %v", arm.Name, rep, p)
		}
	}()
	switch {
	case sc.Shards > 0:
		out, net, churn, resil, err = runSharded(sc, arm, seed, rep, ars)
	default:
		out, net, churn, resil, err = runChurn(sc, arm, seed, rep, ars[0])
	}
	if err != nil {
		err = fmt.Errorf("scenario: arm %q rep %d: %w", arm.Name, rep, err)
	}
	return out, net, churn, resil, err
}

// netStats snapshots the fabric and resource accounting after a trial
// has run.
func netStats(n *core.Network) NetStats {
	fab := n.Fabric()
	st := NetStats{
		UnknownDst: fab.UnknownDst(),
		Unroutable: fab.Unroutable(),
		Resource:   n.ResourceStats(),
		SchedDrops: n.SchedDrops(),
	}
	for _, l := range fab.Trunks() {
		st.Trunks = append(st.Trunks, TrunkStat{Name: l.Name(), Stats: l.Stats()})
	}
	return st
}

// scheduleEvents arms the scenario's link events on a trial network.
// Relay events step an explicit relay's access links; trunk events step
// both directions of a backbone trunk.
func scheduleEvents(n *core.Network, events []LinkEvent) {
	for _, ev := range events {
		rate := ev.Rate
		if ev.trunk() {
			gf := n.Fabric().(*netem.GraphFabric)
			ab, ba := gf.Trunk(ev.TrunkA, ev.TrunkB), gf.Trunk(ev.TrunkB, ev.TrunkA)
			n.Clock().At(ev.At, func() {
				ab.SetRate(rate)
				ba.SetRate(rate)
			})
			continue
		}
		port := n.Relay(ev.Relay).Port()
		n.Clock().At(ev.At, func() {
			port.Uplink().SetRate(rate)
			port.Downlink().SetRate(rate)
		})
	}
}

// workloadParams renders the scenario's generated topology into the
// workload.Build parameters of one trial. The engine starts the
// transfers itself, so the start and direction fields stay zero.
func workloadParams(sc Scenario, arm Arm, ar *arena.Arena) workload.ScenarioParams {
	// With a SizeMix-only workload the engine sizes each transfer
	// (sizeFor), but Build still validates a positive TransferSize —
	// hand it the first mix entry.
	size := sc.Circuits.TransferSize
	if size <= 0 {
		size = sc.Circuits.sizeFor(0)
	}
	return workload.ScenarioParams{
		Relays:         *sc.Topology.Population,
		Circuits:       sc.Circuits.Count,
		HopsPerCircuit: sc.Circuits.Hops,
		TransferSize:   size,
		Transport:      arm.Transport,
		ClientAccess:   sc.ClientAccess,
		TraceCwnd:      sc.Probes.TraceCwnd,
		Fabric:         sc.Topology.Fabric,
		RelayConfig:    arm.Relay,
		TrainSize:      sc.TrainSize,
		Arena:          ar,
	}
}

// buildExplicit constructs one trial's network over an explicit
// topology: attach the listed relays in order and build each circuit
// along its declared path. It returns the (defaults-filled) client
// access so churn arrivals attach identically.
func buildExplicit(sc Scenario, arm Arm, seed int64, ar *arena.Arena) (*core.Network, []*core.Circuit, netem.AccessConfig, error) {
	build := func(clock *sim.Clock, _ *sim.RNG) netem.Fabric {
		return netem.NewStarFabric(clock)
	}
	if spec := sc.Topology.Fabric; spec != nil {
		fs := spec.Clone()
		for i := range fs.Trunks {
			fs.Trunks[i].Config.TrainSize = sc.TrainSize
		}
		build = func(clock *sim.Clock, rng *sim.RNG) netem.Fabric {
			return fs.Build(clock, rng)
		}
	}
	var n *core.Network
	if ar != nil {
		n = core.NewNetworkInArena(ar, seed, build)
	} else {
		n = core.NewNetworkWithFabric(seed, build)
	}
	if err := n.ConfigureRelays(arm.Relay); err != nil {
		return nil, nil, netem.AccessConfig{}, err
	}
	for _, r := range sc.Topology.Relays {
		acc := r.Access
		acc.TrainSize = sc.TrainSize
		if _, err := n.AddRelay(r.ID, acc); err != nil {
			return nil, nil, netem.AccessConfig{}, err
		}
	}
	access := sc.ClientAccess
	if access.UpRate == 0 {
		access = netem.Symmetric(units.Mbps(100), 5*time.Millisecond, 0)
	}
	access.TrainSize = sc.TrainSize
	circuits := make([]*core.Circuit, sc.Circuits.Count)
	for i := range circuits {
		source, sink := netem.NodeID("client"), netem.NodeID("server")
		if sc.Circuits.Count > 1 {
			source = netem.NodeID(fmt.Sprintf("client-%03d", i))
			sink = netem.NodeID(fmt.Sprintf("server-%03d", i))
		}
		c, err := n.BuildCircuit(core.CircuitSpec{
			Source:       source,
			Sink:         sink,
			SourceAccess: access,
			SinkAccess:   access,
			Relays:       sc.Circuits.path(i),
			Transport:    arm.Transport,
			TraceCwnd:    sc.Probes.TraceCwnd,
		})
		if err != nil {
			if errors.Is(err, core.ErrCircuitRejected) {
				// A relay at its circuit cap refused the build under a
				// reject-new policy; the slot stays nil and is reported
				// as a rejected outcome.
				continue
			}
			return nil, nil, netem.AccessConfig{}, fmt.Errorf("circuit %d: %w", i, err)
		}
		circuits[i] = c
	}
	return n, circuits, access, nil
}

// arrivalDelays renders the arrival process into per-circuit start
// offsets, drawn from seed-derived streams so they are identical across
// arms and worker counts. starts names the uniform stagger's stream.
func arrivalDelays(seed int64, cs CircuitSet, n int, starts string) []time.Duration {
	out := make([]time.Duration, n)
	switch cs.Arrival.Kind {
	case ArriveUniform:
		rng := sim.NewRNG(seed, starts)
		for i := range out {
			out[i] = time.Duration(rng.Int63n(int64(cs.Arrival.Spread)))
		}
	case ArrivePoisson:
		rng := sim.NewRNG(seed, "scenario-arrivals")
		var at time.Duration
		for i := range out {
			at += time.Duration(rng.Exponential(1/cs.Arrival.Rate) * float64(time.Second))
			out[i] = at
		}
	}
	return out
}

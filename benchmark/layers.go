package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"circuitstart/internal/arena"
	"circuitstart/internal/cell"
	"circuitstart/internal/core"
	"circuitstart/internal/directory"
	"circuitstart/internal/endpoint"
	"circuitstart/internal/netem"
	"circuitstart/internal/onion"
	"circuitstart/internal/scenario"
	"circuitstart/internal/sched"
	"circuitstart/internal/sim"
	"circuitstart/internal/spec"
	"circuitstart/internal/sweep"
	"circuitstart/internal/transport"
	"circuitstart/internal/units"
	"circuitstart/internal/workload"
)

// prober runs the per-layer probes of a traced run. Each probe times
// calls into one layer's public functions from outside, under a span,
// and turns the time into a per-operation number. The probes are the
// same whatever workload the run traces: they are the price list the
// workloads' end-to-end numbers are explained with.
type prober struct {
	seed int64
	z    sizes
	tr   *tracer
	out  map[string]metric
}

// layerProbes returns every per-layer metric except
// trace.overhead_ratio, which the run loop measures on the workload.
// A probe that fails leaves its metrics out and its error in errs.
func layerProbes(seed int64, z sizes, tr *tracer) (out map[string]metric, errs []error) {
	p := &prober{seed: seed, z: z, tr: tr, out: make(map[string]metric)}
	defer tr.span("layer probes")()
	for _, probe := range []func() error{
		p.simProbes, p.netemProbes, p.onionProbes, p.schedProbe, p.transportProbes,
		p.coreProbes, p.populationProbes, p.scenarioProbes, p.churnCounts,
		p.specProbes, p.sweepProbes, p.serveProbes,
	} {
		if err := probe(); err != nil {
			errs = append(errs, err)
		}
	}
	return p.out, errs
}

func (p *prober) set(name string, v float64, unit string) { p.out[name] = metric{v, unit} }

// timed runs fn under a span and returns how long it took.
func (p *prober) timed(name string, fn func()) time.Duration {
	done := p.tr.span(name)
	start := time.Now()
	fn()
	d := time.Since(start)
	done()
	return d
}

// perOp runs fn, which performs n operations, and records the time per
// operation in the given unit ("ns", "us" or "ms").
func (p *prober) perOp(name, unit string, n int, fn func()) {
	d := p.timed(name, fn)
	p.tr.count(name, int64(n))
	p.set(name, float64(d)/float64(n)/float64(unitNs(unit)), unit)
}

func unitNs(unit string) time.Duration {
	switch unit {
	case "us":
		return time.Microsecond
	case "ms":
		return time.Millisecond
	}
	return time.Nanosecond
}

// ---- sim ----

func (p *prober) simProbes() error {
	n := p.z.probeLoops
	fired := 0
	fire := func() { fired++ }

	c := sim.NewClock()
	p.perOp("sim.schedule_fire_ns", "ns", n, func() {
		for i := 0; i < n; i++ {
			c.After(time.Microsecond, fire)
			c.Run()
		}
	})

	// The same against a deep queue: 4,096 events parked an hour ahead,
	// so every push and pop walks a full-height heap.
	deep := sim.NewClock()
	for i := 0; i < 4096; i++ {
		deep.After(time.Hour+time.Duration(i), fire)
	}
	p.perOp("sim.schedule_fire_q4096_ns", "ns", n, func() {
		for i := 0; i < n; i++ {
			deep.After(time.Microsecond, fire)
			deep.Step()
		}
	})

	tc := sim.NewClock()
	tm := sim.NewTimer(tc, fire)
	p.perOp("sim.timer_rearm_ns", "ns", n, func() {
		for i := 0; i < n; i++ {
			tm.Arm(time.Millisecond)
		}
	})
	tm.Stop()
	if fired != 2*n {
		return fmt.Errorf("sim probes fired %d events, want %d", fired, 2*n)
	}
	return nil
}

// ---- netem ----

type frameSink struct{ cells int }

func (s *frameSink) Deliver(*netem.Frame)           { s.cells++ }
func (s *frameSink) DeliverTrain(fs []*netem.Frame) { s.cells += len(fs) }

func (p *prober) netemProbes() error {
	n := p.z.probeLoops / 4
	const train = 8
	for _, lp := range []struct {
		name  string
		train int
	}{{"netem.link_frame_ns", 0}, {"netem.link_train_frame_ns", train}} {
		clock := sim.NewClock()
		sink := &frameSink{}
		link := netem.NewLink("probe", clock, netem.LinkConfig{
			Rate: units.Mbps(100), Delay: time.Millisecond, TrainSize: lp.train,
		}, sink)
		pool := netem.NewFramePool()
		link.UsePool(pool, true)
		burst := 1
		if lp.train > 1 {
			burst = lp.train
		}
		p.perOp(lp.name, "ns", n*burst, func() {
			for i := 0; i < n; i++ {
				for j := 0; j < burst; j++ {
					f := pool.Get()
					f.Src, f.Dst, f.Size = "a", "b", 512
					link.Send(f)
				}
				clock.Run()
			}
		})
		if sink.cells != n*burst {
			return fmt.Errorf("%s delivered %d of %d frames", lp.name, sink.cells, n*burst)
		}
	}

	access := netem.Symmetric(units.Mbps(100), time.Millisecond, 0)
	drop := netem.HandlerFunc(func(*netem.Frame) {})

	clock := sim.NewClock()
	star := netem.NewStarFabric(clock)
	delivered := 0
	count := netem.HandlerFunc(func(*netem.Frame) { delivered++ })
	pa := star.Attach("a", access, drop, nil)
	star.Attach("b", access, count, nil)
	p.perOp("netem.star_frame_ns", "ns", n, func() {
		for i := 0; i < n; i++ {
			pa.Send("b", 512, nil)
			clock.Run()
		}
	})

	// Two ring switches apart: uplink, two trunks, downlink.
	ring, err := workload.GenerateBackbone(workload.DefaultBackboneParams(1, 4))
	if err != nil {
		return err
	}
	ring.Homes["a"], ring.Homes["b"] = workload.SwitchID(0), workload.SwitchID(2)
	gclock := sim.NewClock()
	graph := ring.Build(gclock, nil)
	ga := graph.Attach("a", access, drop, nil)
	graph.Attach("b", access, count, nil)
	p.perOp("netem.graph_frame_ns", "ns", n, func() {
		for i := 0; i < n; i++ {
			ga.Send("b", 512, nil)
			gclock.Run()
		}
	})
	if delivered != 2*n {
		return fmt.Errorf("fabric probes delivered %d of %d frames", delivered, 2*n)
	}

	big, err := workload.GenerateBackbone(workload.DefaultBackboneParams(p.z.scaleRelays, p.z.scaleSwitches))
	if err != nil {
		return err
	}
	reps := 1 + n/1000
	var perr error
	p.perOp("netem.partition_us", "us", reps, func() {
		for i := 0; i < reps; i++ {
			if _, err := netem.PartitionGraph(big, 2); err != nil {
				perr = err
			}
		}
	})
	return perr
}

// ---- onion ----

// countingRand is a deterministic byte stream for key generation.
type countingRand struct{ ctr byte }

func (r *countingRand) Read(b []byte) (int, error) {
	for i := range b {
		r.ctr += 31
		b[i] = r.ctr ^ byte(i)
	}
	return len(b), nil
}

func (p *prober) onionProbes() error {
	const hops = 3
	rnd := &countingRand{ctr: byte(p.seed)}
	idents := make([]*onion.Identity, hops)
	for i := range idents {
		id, err := onion.NewIdentity(rnd)
		if err != nil {
			return err
		}
		idents[i] = id
	}
	var cc *onion.CircuitCrypto
	var keys []*onion.HopKeys
	var herr error
	builds := 1 + p.z.probeLoops/2000
	p.perOp("onion.handshake_us", "us", builds, func() {
		for i := 0; i < builds; i++ {
			if cc, keys, herr = onion.BuildCircuit(rnd, idents); herr != nil {
				return
			}
		}
	})
	if herr != nil {
		return herr
	}

	n := p.z.probeLoops / 10
	c := &cell.Cell{}
	data := make([]byte, cell.MaxRelayData)
	hdr := cell.RelayHeader{Cmd: cell.RelayData, StreamID: 1}
	if err := c.SetRelay(hdr, data); err != nil {
		return err
	}
	p.perOp("onion.wrap_ns", "ns", n, func() {
		for i := 0; i < n; i++ {
			cc.WrapForward(c)
		}
	})

	// Backward cells have to be sealed and layered by the relays before
	// the client can peel them; only the peeling is timed.
	exit := keys[hops-1]
	var unwrap time.Duration
	done := p.tr.span("onion.unwrap_ns")
	for i := 0; i < n; i++ {
		if err := c.SetRelay(hdr, data); err != nil {
			return err
		}
		exit.SealBackward(c)
		for h := hops - 1; h >= 0; h-- {
			keys[h].EncryptBackward(c)
		}
		start := time.Now()
		_, err := cc.UnwrapBackward(c)
		unwrap += time.Since(start)
		if err != nil {
			return err
		}
	}
	done()
	p.set("onion.unwrap_ns", float64(unwrap)/float64(n), "ns")
	return nil
}

// ---- sched ----

func (p *prober) schedProbe() error {
	const circuits = 8
	n := p.z.probeLoops / 8
	q := sched.NewEWMA(sim.NewClock(), 0)
	pool := netem.NewFramePool()
	frames := make([]*netem.Frame, circuits)
	for i := range frames {
		f := pool.Get()
		f.Src, f.Dst, f.Size, f.Circ = "a", "b", 512, uint32(i+1)
		frames[i] = f
	}
	popped := 0
	p.perOp("sched.ewma_frame_ns", "ns", n*circuits, func() {
		for i := 0; i < n; i++ {
			for _, f := range frames {
				q.Push(f)
			}
			for j := 0; j < circuits; j++ {
				if q.Pop() != nil {
					popped++
				}
			}
		}
	})
	if popped != n*circuits {
		return fmt.Errorf("EWMA popped %d of %d frames", popped, n*circuits)
	}
	return nil
}

// ---- transport ----

func (p *prober) transportProbes() error {
	n := p.z.probeLoops / 4
	c := &cell.Cell{Circ: 1, Cmd: cell.CmdRelay}

	// Sender with no network: every cell it transmits is acknowledged
	// and feedback-confirmed a simulated millisecond later, so the
	// window never closes and rounds complete with a real RTT.
	clock := sim.NewClock()
	var sent uint64
	s := transport.NewSender(transport.Config{
		Clock: clock, Circ: 1,
		Send: func(seg transport.Segment) bool {
			if seg.Kind == transport.KindData {
				sent++
			}
			return true
		},
	})
	p.perOp("transport.sender_cell_ns", "ns", n, func() {
		for i := 0; i < n; i++ {
			s.Enqueue(c)
			clock.RunUntil(clock.Now().Add(time.Millisecond))
			s.HandleAck(sent)
			s.HandleFeedback(sent)
		}
	})
	if sent < uint64(n) {
		return fmt.Errorf("sender transmitted %d of %d cells", sent, n)
	}

	delivered := 0
	r := transport.NewReceiver(1,
		func(transport.Segment) bool { return true },
		func(*cell.Cell) { delivered++ })
	p.perOp("transport.receiver_cell_ns", "ns", n, func() {
		for i := 0; i < n; i++ {
			r.HandleData(uint64(i), c)
			r.NotifyForwarded(uint64(i + 1))
		}
	})
	if delivered != n {
		return fmt.Errorf("receiver delivered %d of %d cells", delivered, n)
	}
	return nil
}

// ---- core: one trial taken apart ----

// trialParts is where one hand-assembled trial's time went.
type trialParts struct {
	total, addRelay, build, run, teardown time.Duration
	relays, circuits                      int
	events, cells, mallocs                uint64
}

// starTrial assembles and runs one star trial by hand from the layers'
// public pieces — the steps scenario.Runner performs internally — so
// each step can be timed from outside: generate the population, build
// the network in the arena, attach relays, select paths, build
// circuits, run the transfers, tear down.
func (p *prober) starTrial(label string, ar *arena.Arena, circuits int, size units.DataSize, train int) (trialParts, error) {
	var parts trialParts
	var err error
	parts.total = p.timed(label, func() {
		// One seed for every hand-assembled trial, so cold against warm
		// compares the same simulation.
		seed := inputRNG(p.seed, "probe_trial").Int63()
		var relays []workload.Relay
		p.timed("workload.GenerateRelays", func() {
			relays, err = workload.GenerateRelays(seed, workload.DefaultRelayParams(40))
		})
		if err != nil {
			return
		}
		var n *core.Network
		p.timed("core.NewNetworkInArena", func() {
			n = core.NewNetworkInArena(ar, seed, func(clock *sim.Clock, _ *sim.RNG) netem.Fabric {
				return netem.NewStarFabric(clock)
			})
		})
		descs := make([]directory.Descriptor, len(relays))
		parts.relays = len(relays)
		parts.addRelay = p.timed("core.Network.AddRelay", func() {
			for i, r := range relays {
				descs[i] = r.Desc
				r.Access.TrainSize = train
				if _, err = n.AddRelay(r.Desc.ID, r.Access); err != nil {
					return
				}
			}
		})
		if err != nil {
			return
		}
		consensus, cerr := directory.NewConsensus(descs)
		if cerr != nil {
			err = cerr
			return
		}
		access := netem.Symmetric(units.Mbps(100), 5*time.Millisecond, workload.DefaultRelayParams(40).QueueCap)
		access.TrainSize = train
		rng := sim.NewRNG(seed, "probe-paths")
		paths := make([][]netem.NodeID, circuits)
		p.timed("directory.Consensus.SelectPath", func() {
			for i := range paths {
				path, perr := consensus.SelectPath(rng, 3)
				if perr != nil {
					err = perr
					return
				}
				for _, d := range path {
					paths[i] = append(paths[i], d.ID)
				}
			}
		})
		if err != nil {
			return
		}
		built := make([]*core.Circuit, circuits)
		parts.circuits = circuits
		parts.build = p.timed("core.Network.BuildCircuit", func() {
			for i := range built {
				built[i], err = n.BuildCircuit(core.CircuitSpec{
					Source:       netem.NodeID(fmt.Sprintf("client-%03d", i)),
					Sink:         netem.NodeID(fmt.Sprintf("server-%03d", i)),
					SourceAccess: access, SinkAccess: access,
					Relays:    paths[i],
					Transport: core.TransportOptions{Policy: "circuitstart"},
				})
				if err != nil {
					return
				}
			}
		})
		if err != nil {
			return
		}
		remaining := circuits
		for _, c := range built {
			c := c
			delay := time.Duration(rng.Int63n(int64(200 * time.Millisecond)))
			n.Clock().After(delay, func() {
				c.TransferBackward(size, func(time.Duration) {
					if remaining--; remaining == 0 {
						n.Clock().Stop()
					}
				})
			})
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		processed := n.Clock().Processed()
		parts.run = p.timed("core.Network.RunUntil", func() { n.RunUntil(600 * sim.Second) })
		parts.events = n.Clock().Processed() - processed
		runtime.ReadMemStats(&after)
		parts.mallocs = after.Mallocs - before.Mallocs
		for _, c := range built {
			if c.Done() {
				parts.cells += uint64(endpoint.CellsFor(size))
			}
		}
		if remaining != 0 {
			err = fmt.Errorf("%s: %d of %d transfers incomplete", label, remaining, circuits)
			return
		}
		parts.teardown = p.timed("core.Circuit.Teardown", func() {
			for _, c := range built {
				c.Teardown()
			}
		})
	})
	p.tr.count(label+".events", int64(parts.events))
	p.tr.count(label+".cells", int64(parts.cells))
	return parts, err
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func (p *prober) coreProbes() error {
	// Two trials on one arena: the first pays for every pool and slab
	// (what a worker's first trial costs), the second is the steady
	// state every later trial sees, and the one taken apart.
	ar := arena.New()
	cold, err := p.starTrial("arena.cold_trial", ar, p.z.probeCircuits, p.z.probeSize, 0)
	if err != nil {
		return err
	}
	ar.ResetTrial()
	warm, err := p.starTrial("arena.warm_trial", ar, p.z.probeCircuits, p.z.probeSize, 0)
	if err != nil {
		return err
	}
	p.set("arena.cold_trial_ms", ms(cold.total), "ms")
	p.set("arena.warm_trial_ms", ms(warm.total), "ms")
	p.set("core.add_relay_us", us(warm.addRelay)/float64(warm.relays), "us")
	p.set("core.build_circuit_us", us(warm.build)/float64(warm.circuits), "us")
	p.set("core.teardown_us", us(warm.teardown)/float64(warm.circuits), "us")
	p.set("core.run_event_ns", float64(warm.run)/float64(warm.events), "ns")
	p.set("core.cell_ns", float64(warm.run)/float64(warm.cells), "ns")
	p.set("core.events_per_cell", float64(warm.events)/float64(warm.cells), "count")
	p.set("core.allocs_per_cell", float64(warm.mallocs)/float64(warm.cells), "allocs/cell")

	ar.ResetTrial()
	trains, err := p.starTrial("core.train_trial", ar, p.z.bulkCircuits/2, p.z.probeTrainSize, 8)
	if err != nil {
		return err
	}
	p.set("core.train_run_event_ns", float64(trains.run)/float64(trains.events), "ns")
	p.set("core.train_cell_ns", float64(trains.run)/float64(trains.cells), "ns")
	p.set("core.train_events_per_cell", float64(trains.events)/float64(trains.cells), "count")

	// What one more relay and one more link cost a cell: a lone transfer
	// over three relays against the same transfer over one.
	hop := func(relays int) (time.Duration, error) {
		n := core.NewNetwork(p.seed)
		access := netem.Symmetric(units.Mbps(100), 5*time.Millisecond, 0)
		path := make([]netem.NodeID, relays)
		for i := range path {
			path[i] = netem.NodeID(fmt.Sprintf("relay-%d", i+1))
			if _, err := n.AddRelay(path[i], access); err != nil {
				return 0, err
			}
		}
		c, err := n.BuildCircuit(core.CircuitSpec{
			Source: "client", Sink: "server", SourceAccess: access, SinkAccess: access,
			Relays: path, Transport: core.TransportOptions{Policy: "circuitstart"},
		})
		if err != nil {
			return 0, err
		}
		c.TransferBackward(p.z.probeHopSize, func(time.Duration) { n.Clock().Stop() })
		d := p.timed(fmt.Sprintf("core.transfer_%d_relays", relays), func() { n.Run() })
		if !c.Done() {
			return 0, fmt.Errorf("%d-relay transfer incomplete", relays)
		}
		return d, nil
	}
	one, err := hop(1)
	if err != nil {
		return err
	}
	three, err := hop(3)
	if err != nil {
		return err
	}
	cells := float64(endpoint.CellsFor(p.z.probeHopSize))
	p.set("core.extra_hop_cell_ns", float64(three-one)/(2*cells), "ns")
	return nil
}

// ---- workload / directory ----

func (p *prober) populationProbes() error {
	params := workload.DefaultRelayParams(p.z.scaleRelays)
	var relays []workload.Relay
	var err error
	p.perOp("workload.generate_relays_us", "us", 1, func() {
		relays, err = workload.GenerateRelays(p.seed, params)
	})
	if err != nil {
		return err
	}
	p.perOp("workload.backbone_us", "us", 1, func() {
		_, err = workload.GenerateBackbone(workload.DefaultBackboneParams(p.z.scaleRelays, p.z.scaleSwitches))
	})
	if err != nil {
		return err
	}
	descs := make([]directory.Descriptor, len(relays))
	for i, r := range relays {
		descs[i] = r.Desc
	}
	consensus, err := directory.NewConsensus(descs)
	if err != nil {
		return err
	}
	rng := sim.NewRNG(p.seed, "probe-select")
	n := 1 + p.z.probeLoops/400
	p.perOp("directory.select_path_ns", "ns", n, func() {
		for i := 0; i < n; i++ {
			if _, perr := consensus.SelectPath(rng, 3); perr != nil {
				err = perr
			}
		}
	})
	return err
}

// ---- scenario ----

// runTimed runs a scenario and returns wall time and bytes allocated.
func (p *prober) runTimed(name string, workers int, sc scenario.Scenario) (time.Duration, float64, *scenario.Result, error) {
	runtime.GC()
	before := allocatedBytes()
	var res *scenario.Result
	var err error
	d := p.timed(name, func() { res, err = scenario.Runner{Workers: workers}.Run(sc) })
	if err == nil {
		for i := range res.Arms {
			if res.Arms[i].Incomplete > 0 {
				err = fmt.Errorf("%s: %d downloads incomplete", name, res.Arms[i].Incomplete)
			}
		}
	}
	return d, float64(allocatedBytes()-before) / 1e6, res, err
}

func (p *prober) scenarioProbes() error {
	z := p.z
	probe := starScenario("probe_fig1", p.seed, z.probeCircuits, z.probeSize, 0)

	// The second engine's price: the same static input with a 1 ns
	// teardown delay runs on the lifecycle engine instead.
	static := probe
	static.Arms = probe.Arms[:1]
	lifecycle := static
	lifecycle.CircuitEvents.TeardownDelay = time.Nanosecond
	d, _, _, err := p.runTimed("scenario.static_trial", 1, static)
	if err != nil {
		return err
	}
	p.set("scenario.static_trial_ms", ms(d), "ms")
	if d, _, _, err = p.runTimed("scenario.lifecycle_trial", 1, lifecycle); err != nil {
		return err
	}
	p.set("scenario.lifecycle_trial_ms", ms(d), "ms")

	// Trial-level parallelism: 2 replications × 2 arms on one worker
	// against one worker per CPU.
	probe.Replications = 2
	serial, _, _, err := p.runTimed("scenario.workers_1", 1, probe)
	if err != nil {
		return err
	}
	parallel, _, _, err := p.runTimed("scenario.workers_ncpu", runtime.NumCPU(), probe)
	if err != nil {
		return err
	}
	p.set("scenario.workers_speedup", float64(serial)/float64(parallel), "ratio")

	// One trial split across shards: time and memory at 1 and 2 shards.
	var shard [3]time.Duration
	for _, shards := range []int{1, 2} {
		sc, err := scaleScenario(p.seed, z.probeScaleRelays, z.scaleSwitches, z.probeScaleLoad, 2*z.probeScaleLoad, shards)
		if err != nil {
			return err
		}
		d, mb, _, err := p.runTimed(fmt.Sprintf("scenario.shard%d_trial", shards), 1, sc)
		if err != nil {
			return err
		}
		shard[shards] = d
		p.set(fmt.Sprintf("scenario.shard%d_trial_ms", shards), ms(d), "ms")
		p.set(fmt.Sprintf("scenario.shard%d_alloc_mb", shards), mb, "MB")
		if shards == 1 {
			clones := 1 + z.probeLoops/1000
			p.perOp("scenario.clone_us", "us", clones, func() {
				for i := 0; i < clones; i++ {
					_ = sc.Clone()
				}
			})
		}
	}
	p.set("scenario.shard_speedup", float64(shard[1])/float64(shard[2]), "ratio")
	return nil
}

// churnCounts runs a shortened churn_faults trial for the counts that
// say what the control plane did.
func (p *prober) churnCounts() error {
	sc, err := churnScenario(p.seed, p.z.churnInitial, p.z.probeChurn)
	if err != nil {
		return err
	}
	_, _, res, err := p.runTimed("scenario.churn_trial", 1, sc)
	if err != nil {
		return err
	}
	a := res.Arms[0]
	for name, v := range map[string]int{
		"faults.stalls": a.Resilience.Stalls, "faults.recoveries": a.Resilience.Recoveries,
		"scenario.built": a.Churn.Built, "scenario.torn_down": a.Churn.TornDown,
	} {
		p.set(name, float64(v), "count")
		p.tr.count(name, int64(v))
	}
	return nil
}

// ---- spec ----

func (p *prober) specProbes() error {
	data := sweepSpec(p.seed, p.z)
	n := 1 + p.z.probeLoops/2000
	var f *spec.File
	var err error
	p.perOp("spec.parse_us", "us", n, func() {
		for i := 0; i < n; i++ {
			if f, err = spec.Parse(data); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	p.perOp("spec.render_us", "us", n, func() {
		for i := 0; i < n; i++ {
			if _, err = f.Sweep(); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	p.perOp("spec.basehash_us", "us", n, func() {
		for i := 0; i < n; i++ {
			if _, err = f.BaseHash(); err != nil {
				return
			}
		}
	})
	return err
}

// ---- sweep ----

// keepPoints is a sink that keeps every emitted point's arm rows.
type keepPoints struct{ points []sweep.PointResult }

func (k *keepPoints) Begin(sweep.Meta) error { return nil }
func (k *keepPoints) Point(pr *sweep.PointResult) error {
	k.points = append(k.points, sweep.PointResult{Point: pr.Point, Arms: pr.Arms})
	return nil
}
func (k *keepPoints) Flush() error { return nil }

// probeGridSpec is a small grid of the sweep_grid shape.
func (p *prober) probeGridSpec() []byte {
	return gridSpec("probe_grid", inputRNG(p.seed, "probe_grid").Int63(), p.z.probeGrid, p.z.coldBandwidths, nil, p.z.gridHorizonSec)
}

func (p *prober) sweepProbes() error {
	fullSweep, err := renderSpec(sweepSpec(p.seed, p.z), nil)
	if err != nil {
		return err
	}
	expands := 1 + p.z.probeLoops/10000
	p.perOp("sweep.points_expand_us", "us", expands*fullSweep.Size(), func() {
		for i := 0; i < expands; i++ {
			if _, err = fullSweep.Points(); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}

	sw, err := renderSpec(p.probeGridSpec(), nil)
	if err != nil {
		return err
	}
	var kept keepPoints
	serial := p.timed("sweep.workers_1", func() { _, err = sweep.Engine{Workers: 1}.Run(sw, &kept) })
	if err != nil {
		return err
	}
	var first time.Duration
	parallel := p.timed("sweep.workers_ncpu", func() {
		_, first, _, err = runGrid(p.probeGridSpec(), runtime.NumCPU(), p.tr, time.Now())
	})
	if err != nil {
		return err
	}
	p.set("sweep.workers_speedup", float64(serial)/float64(parallel), "ratio")
	p.set("sweep.first_row_ms", ms(first), "ms")

	// The engine with nothing to simulate: every point is answered by
	// Lookup, leaving the pool, the in-order emit and the Table.
	byIndex := make(map[int][]sweep.ArmPoint, len(kept.points))
	for _, pr := range kept.points {
		byIndex[pr.Point.Index] = pr.Arms
	}
	lookups := 1 + p.z.probeLoops/2000
	engine := sweep.Engine{Lookup: func(pt sweep.Point) ([]sweep.ArmPoint, bool) {
		arms, ok := byIndex[pt.Index]
		return arms, ok
	}}
	p.perOp("sweep.engine_point_us", "us", lookups*len(kept.points), func() {
		for i := 0; i < lookups; i++ {
			if _, err = engine.Run(sw); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}

	rows := 1 + p.z.probeLoops/(10*len(kept.points))
	meta := sweep.Meta{Name: sw.Name, Dimensions: sw.DimensionNames(), GridSize: sw.Size(), Points: len(kept.points)}
	for _, sk := range []struct {
		name string
		sink sweep.Sink
	}{
		{"sweep.csv_row_ns", sweep.NewCSVSink(io.Discard)},
		{"sweep.jsonl_row_ns", sweep.NewJSONLSink(io.Discard)},
	} {
		if err := sk.sink.Begin(meta); err != nil {
			return err
		}
		p.perOp(sk.name, "ns", rows*len(kept.points), func() {
			for i := 0; i < rows; i++ {
				for j := range kept.points {
					if err = sk.sink.Point(&kept.points[j]); err != nil {
						return
					}
				}
			}
		})
		if err != nil {
			return err
		}
		if err := sk.sink.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// ---- serve ----

func (p *prober) serveProbes() error {
	d := startDaemon()
	defer d.close()
	data := p.probeGridSpec()
	computed, err := d.submit(data, nil)
	if err != nil {
		return err
	}
	var submit, firstRow, perRow []float64
	var last submission
	for i := 0; i < p.z.probeReplays; i++ {
		s, err := d.submit(data, p.tr)
		if err != nil {
			return err
		}
		if string(s.body) != string(computed.body) {
			return fmt.Errorf("replay %d differs from the computed body", i)
		}
		submit = append(submit, ms(s.submit))
		firstRow = append(firstRow, ms(s.firstRow))
		perRow = append(perRow, us(s.total-s.submit)/float64(s.rows))
		last = s
	}
	p.set("serve.submit_ms", median(submit), "ms")
	p.set("serve.replay_first_row_ms", median(firstRow), "ms")
	p.set("serve.stream_row_us", median(perRow), "us")

	gets := 1 + p.z.probeLoops/1000
	for _, ep := range []struct{ name, path string }{
		{"serve.status_us", "/v1/sweeps/" + last.id},
		{"serve.healthz_us", "/v1/healthz"},
	} {
		p.perOp(ep.name, "us", gets, func() {
			for i := 0; i < gets; i++ {
				if _, err = d.get(ep.path); err != nil {
					return
				}
			}
		})
		if err != nil {
			return err
		}
	}
	hits, misses, err := d.cacheCounters()
	if err != nil {
		return err
	}
	p.set("serve.cache_hits", float64(hits), "count")
	p.set("serve.cache_misses", float64(misses), "count")
	p.tr.count("serve.cache_hits", hits)
	p.tr.count("serve.cache_misses", misses)
	return nil
}

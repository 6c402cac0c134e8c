package scenario

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"circuitstart/internal/arena"
	"circuitstart/internal/core"
	"circuitstart/internal/directory"
	"circuitstart/internal/faults"
	"circuitstart/internal/netem"
	"circuitstart/internal/pool"
	"circuitstart/internal/sim"
	"circuitstart/internal/units"
	"circuitstart/internal/workload"
)

// This file runs one trial on the sharded conservative-lookahead engine
// (core.ShardedNetwork). The data plane is the untouched cell pipeline,
// advanced in barrier-synchronous windows; ALL control-plane work —
// circuit builds, transfer starts, teardowns, relay failures — happens
// at barriers, where every shard clock is parked at the same instant.
//
// Determinism contract: results are byte-identical for any Shards ≥ 1,
// that is, under any plan netem.PartitionGraph returns. The data plane's
// half is netem's: trunk deliveries fire under plan-invariant lane keys.
// Three rules make the control plane hold up its half:
//
//  1. The barrier stride is GraphSpec.MinPositiveTrunkDelay — a bound
//     over ALL trunks, not just the cut ones — so the barrier schedule
//     does not depend on where the partition fell. The stride never
//     exceeds any plan's lookahead (the lookahead minimizes over a
//     subset), so the conservative bound holds at every shard count.
//  2. Every barrier processes its work in a fixed order over data that
//     is itself shard-count-invariant: completions in download-index
//     order, then linger teardowns, then scheduled teardowns and relay
//     events in declared order, then arrivals and pending starts in
//     instant order.
//  3. Virtual instants drive everything. Transfers start at their exact
//     arrival-process instants (scheduled build-ahead from the barrier
//     preceding the instant — no barrier can intervene in between), and
//     completion timestamps derive from the schedule instant plus the
//     transfer's measured duration, never from a barrier's position.
//
// The sharded engine is NOT byte-identical to the Shards = 0
// single-clock engine: teardowns, relay events and the early stop are
// deferred to barriers there, so lifetimes and trailing trunk stats
// shift. Shards = 1 is the reference the golden fixture pins.

// sdownload is one logical transfer tracked by the sharded engine. The
// done/doneAt/ttlb trio is written mid-window by the completing shard
// (exactly one shard ever completes a given transfer) and read only at
// barriers, after the window's WaitGroup join — the barrier is the
// happens-before edge, so no lock is needed.
type sdownload struct {
	index    int
	circuit  *core.ShardedCircuit
	startAt  sim.Time // first transfer start instant
	started  bool
	handled  bool // completion accounted at a barrier
	aborted  bool
	rejected bool
	rebuild  int

	done   bool
	doneAt sim.Time
	ttlb   time.Duration
}

// spending is a transfer start (or churn arrival) waiting for the
// barrier preceding its instant.
type spending struct {
	at sim.Time
	d  *sdownload
}

// slinger is a completed download's circuit waiting out its teardown
// linger.
type slinger struct {
	at sim.Time
	c  *core.ShardedCircuit
}

// shardedEngine drives one trial on a ShardedNetwork, both the static
// path and the dynamic circuit lifecycle (churn, relay events, faults).
type shardedEngine struct {
	sc      Scenario
	arm     Arm
	sn      *core.ShardedNetwork
	cons    *directory.Consensus // nil on explicit topologies
	access  netem.AccessConfig
	seed    int64
	churnOn bool
	stride  time.Duration // barrier stride (0 = one window to the horizon)

	pathRNG   *sim.RNG
	downloads []*sdownload
	dlStore   *pool.Objects[sdownload]
	failed    map[netem.NodeID]bool
	churn     ChurnStats

	starts       []spending // initial transfer starts, sorted (at, index)
	nextStart    int
	arrivals     []spending // churn arrivals, instant order
	nextArrival  int
	teardowns    []TeardownEvent // stable-sorted by At
	nextTeardown int
	relayEvs     []RelayEvent // stable-sorted by At
	nextRelayEv  int
	lingers      []slinger
}

// runSharded executes one trial on the sharded engine. arenas supplies
// one arena per shard (len ≥ the requested shard count).
func runSharded(sc Scenario, arm Arm, seed int64, rep int, arenas []*arena.Arena) ([]CircuitOutcome, NetStats, ChurnStats, ResilienceStats, error) {
	e := &shardedEngine{
		sc:      sc,
		arm:     arm,
		seed:    seed,
		churnOn: sc.hasChurn(),
		pathRNG: sim.NewRNG(seed, "scenario-churn-paths"),
		dlStore: arena.Slot[sdownload](arenas[0], "scenario.sharded-downloads"),
		failed:  make(map[netem.NodeID]bool),
	}
	if e.churnOn {
		e.churn.Lifetime = newLifetimeDist(arm.Name)
	}

	var initial []*core.ShardedCircuit
	var err error
	if sc.Topology.Population != nil {
		initial, err = e.buildGenerated(arenas)
	} else {
		initial, err = e.buildExplicit(arenas)
	}
	if err != nil {
		return nil, NetStats{}, ChurnStats{}, ResilienceStats{}, err
	}
	if sc.Faults.Enabled() {
		faults.InstallSharded(e.sn, sc.Faults, seed)
	}

	// Initial downloads follow the declared arrival process, drawn from
	// the streams the single-clock engine uses under churn.
	delays := arrivalDelays(seed, sc.Circuits, len(initial), "scenario-starts")
	for i, c := range initial {
		d := e.newDownload(i)
		d.circuit = c
		e.downloads = append(e.downloads, d)
		if c == nil {
			d.aborted, d.rejected = true, true
			if e.churnOn {
				e.churn.Aborted++
				e.churn.Rejected++
			}
			continue
		}
		if e.churnOn {
			e.churn.Built++
		}
		e.starts = append(e.starts, spending{at: sim.Time(0).Add(delays[i]), d: d})
	}
	sort.SliceStable(e.starts, func(i, j int) bool { return e.starts[i].at.Before(e.starts[j].at) })

	// Churn arrival instants are pre-drawn at t = 0 from the same
	// "scenario-churn" stream the single-clock engine consumes, so the
	// ledger indices and instants line up with it.
	if ce := sc.CircuitEvents; ce.ArrivalRate > 0 {
		rng := sim.NewRNG(seed, "scenario-churn")
		var at time.Duration
		for j := 0; j < ce.Arrivals; j++ {
			at += time.Duration(rng.Exponential(1/ce.ArrivalRate) * float64(time.Second))
			d := e.newDownload(len(e.downloads))
			e.downloads = append(e.downloads, d)
			e.arrivals = append(e.arrivals, spending{at: sim.Time(0).Add(at), d: d})
		}
	}
	e.teardowns = append([]TeardownEvent(nil), sc.CircuitEvents.Teardowns...)
	sort.SliceStable(e.teardowns, func(i, j int) bool { return e.teardowns[i].At.Before(e.teardowns[j].At) })
	e.relayEvs = append([]RelayEvent(nil), sc.RelayEvents...)
	sort.SliceStable(e.relayEvs, func(i, j int) bool { return e.relayEvs[i].At.Before(e.relayEvs[j].At) })

	e.sn.RunWindows(sc.Horizon, e.barrier)
	return e.collect(rep), netStatsSharded(e.sn), e.churn, ResilienceStats{}, nil
}

// newDownload allocates a ledger entry from the arena's store.
func (e *shardedEngine) newDownload(index int) *sdownload {
	d := e.dlStore.Get()
	d.index = index
	return d
}

// newShardedNetwork builds the trial's ShardedNetwork from the
// scenario's fabric spec (TrainSize stamped onto a deep copy) and pins
// the partition-independent barrier stride.
func (e *shardedEngine) newShardedNetwork(arenas []*arena.Arena) error {
	spec := e.sc.Topology.Fabric.Clone()
	for i := range spec.Trunks {
		spec.Trunks[i].Config.TrainSize = e.sc.TrainSize
	}
	sn, err := core.NewShardedNetwork(e.seed, spec, e.sc.Shards, arenas)
	if err != nil {
		return err
	}
	if stride := spec.MinPositiveTrunkDelay(); stride > 0 {
		sn.SetWindow(stride)
		e.stride = stride
	}
	e.sn = sn
	return nil
}

// buildExplicit mirrors the single-clock buildExplicit on the sharded
// network: relays attached in declared order, circuits built along
// their declared paths.
func (e *shardedEngine) buildExplicit(arenas []*arena.Arena) ([]*core.ShardedCircuit, error) {
	sc := e.sc
	if err := e.newShardedNetwork(arenas); err != nil {
		return nil, err
	}
	if err := e.sn.ConfigureRelays(e.arm.Relay); err != nil {
		return nil, err
	}
	for _, r := range sc.Topology.Relays {
		acc := r.Access
		acc.TrainSize = sc.TrainSize
		if _, err := e.sn.AddRelay(r.ID, acc); err != nil {
			return nil, err
		}
	}
	access := sc.ClientAccess
	if access.UpRate == 0 {
		access = netem.Symmetric(units.Mbps(100), 5*time.Millisecond, 0)
	}
	access.TrainSize = sc.TrainSize
	e.access = access
	circuits := make([]*core.ShardedCircuit, sc.Circuits.Count)
	for i := range circuits {
		source, sink := netem.NodeID("client"), netem.NodeID("server")
		if sc.Circuits.Count > 1 {
			source = netem.NodeID(fmt.Sprintf("client-%03d", i))
			sink = netem.NodeID(fmt.Sprintf("server-%03d", i))
		}
		c, err := e.sn.BuildCircuit(core.CircuitSpec{
			Source:       source,
			Sink:         sink,
			SourceAccess: access,
			SinkAccess:   access,
			Relays:       sc.Circuits.path(i),
			Transport:    e.arm.Transport,
			TraceCwnd:    sc.Probes.TraceCwnd,
		})
		if err != nil {
			if errors.Is(err, core.ErrCircuitRejected) {
				continue
			}
			return nil, fmt.Errorf("circuit %d: %w", i, err)
		}
		circuits[i] = c
	}
	return circuits, nil
}

// buildGenerated mirrors workload.Build on the sharded network: the
// same "workload-relays" population, the same consensus, and initial
// paths from the same "workload-paths" stream.
func (e *shardedEngine) buildGenerated(arenas []*arena.Arena) ([]*core.ShardedCircuit, error) {
	sc := e.sc
	relays, err := workload.GenerateRelays(e.seed, *sc.Topology.Population)
	if err != nil {
		return nil, err
	}
	if err := e.newShardedNetwork(arenas); err != nil {
		return nil, err
	}
	if err := e.sn.ConfigureRelays(e.arm.Relay); err != nil {
		return nil, err
	}
	descs := make([]directory.Descriptor, len(relays))
	for i, r := range relays {
		descs[i] = r.Desc
		r.Access.TrainSize = sc.TrainSize
		if _, err := e.sn.AddRelay(r.Desc.ID, r.Access); err != nil {
			return nil, err
		}
	}
	e.cons, err = directory.NewConsensus(descs)
	if err != nil {
		return nil, err
	}
	access := sc.ClientAccess
	if access.UpRate == 0 {
		access = netem.Symmetric(units.Mbps(100), 5*time.Millisecond, sc.Topology.Population.QueueCap)
	}
	access.TrainSize = sc.TrainSize
	e.access = access

	pathRNG := sim.NewRNG(e.seed, "workload-paths")
	circuits := make([]*core.ShardedCircuit, sc.Circuits.Count)
	for i := range circuits {
		path, err := e.cons.SelectPath(pathRNG, e.hops())
		if err != nil {
			return nil, fmt.Errorf("circuit %d: %w", i, err)
		}
		ids := make([]netem.NodeID, len(path))
		for j, d := range path {
			ids[j] = d.ID
		}
		c, err := e.sn.BuildCircuit(core.CircuitSpec{
			Source:       netem.NodeID(fmt.Sprintf("client-%03d", i)),
			Sink:         netem.NodeID(fmt.Sprintf("server-%03d", i)),
			SourceAccess: access,
			SinkAccess:   access,
			Relays:       ids,
			Transport:    e.arm.Transport,
			TraceCwnd:    sc.Probes.TraceCwnd,
		})
		if err != nil {
			if errors.Is(err, core.ErrCircuitRejected) {
				continue
			}
			return nil, fmt.Errorf("circuit %d: %w", i, err)
		}
		circuits[i] = c
	}
	return circuits, nil
}

// nextBarrier returns the instant of the barrier after now.
func (e *shardedEngine) nextBarrier(now sim.Time) sim.Time {
	if e.stride == 0 {
		return e.sc.Horizon
	}
	if n := now.Add(e.stride); n.Before(e.sc.Horizon) {
		return n
	}
	return e.sc.Horizon
}

// barrier is the engine's control plane, run by RunWindows with every
// shard clock parked at now. Returning false stops the trial.
func (e *shardedEngine) barrier(now sim.Time) bool {
	e.handleCompletions(now)
	e.applyLingers(now)
	e.applyTeardowns(now)
	e.applyRelayEvents(now)
	e.scheduleArrivals(now)
	e.scheduleStarts(now)
	return !e.finished()
}

// handleCompletions accounts every download that completed during the
// last window, in index order, and starts its circuit's teardown linger.
func (e *shardedEngine) handleCompletions(now sim.Time) {
	for _, d := range e.downloads {
		if !d.done || d.handled || d.aborted {
			continue
		}
		d.handled = true
		if !e.churnOn {
			continue // static circuits live to the end of the trial
		}
		if delay := e.sc.CircuitEvents.TeardownDelay; delay > 0 {
			e.lingers = append(e.lingers, slinger{at: d.doneAt.Add(delay), c: d.circuit})
		} else {
			e.teardown(d.circuit)
		}
	}
}

// applyLingers tears down completed circuits whose linger has expired.
func (e *shardedEngine) applyLingers(now sim.Time) {
	kept := e.lingers[:0]
	for _, l := range e.lingers {
		if l.at.After(now) {
			kept = append(kept, l)
			continue
		}
		e.teardown(l.c)
	}
	for i := len(kept); i < len(e.lingers); i++ {
		e.lingers[i] = slinger{}
	}
	e.lingers = kept
}

// applyTeardowns aborts initial circuits whose scheduled teardown
// instant has passed.
func (e *shardedEngine) applyTeardowns(now sim.Time) {
	for e.nextTeardown < len(e.teardowns) && !e.teardowns[e.nextTeardown].At.After(now) {
		td := e.teardowns[e.nextTeardown]
		e.nextTeardown++
		e.abort(e.downloads[td.Index])
	}
}

// applyRelayEvents plays the relay failures/recoveries due by now, in
// declared (stable by At) order.
func (e *shardedEngine) applyRelayEvents(now sim.Time) {
	for e.nextRelayEv < len(e.relayEvs) && !e.relayEvs[e.nextRelayEv].At.After(now) {
		ev := e.relayEvs[e.nextRelayEv]
		e.nextRelayEv++
		e.relayEvent(ev, now)
	}
}

// relayEvent mirrors the single-clock engine: on failure every live
// circuit crossing the relay is torn down; Rebuild arms give the
// affected downloads fresh circuits (avoiding all currently-failed
// relays) and restart running transfers at the barrier instant.
func (e *shardedEngine) relayEvent(ev RelayEvent, now sim.Time) {
	r := e.sn.Relay(ev.Relay)
	if ev.Kind == RelayRecover {
		delete(e.failed, ev.Relay)
		r.Recover()
		return
	}
	if e.failed[ev.Relay] {
		return
	}
	e.failed[ev.Relay] = true
	r.Fail()
	for _, d := range e.downloads {
		if d.done || d.aborted || d.circuit == nil || d.circuit.Closed() {
			continue
		}
		if !crossesShardedRelay(d.circuit, ev.Relay) {
			continue
		}
		e.teardown(d.circuit)
		if !e.arm.Rebuild || e.cons == nil {
			d.aborted = true
			e.churn.Aborted++
			continue
		}
		d.rebuild++
		if err := e.buildOn(d, e.failed); err != nil {
			if errors.Is(err, core.ErrCircuitRejected) {
				d.rejected = true
				e.churn.Rejected++
			}
			d.aborted = true
			e.churn.Aborted++
			continue
		}
		e.churn.Rebuilt++
		// Restart only a transfer that was actually running; a download
		// still waiting for its staggered start keeps that schedule and
		// simply starts on the rebuilt circuit.
		if d.started {
			e.startTransfer(d, now)
		}
	}
}

// scheduleArrivals builds and starts the churn downloads whose arrival
// instant falls inside the upcoming window. Building at the barrier
// preceding the instant keeps the path sample consistent with the relay
// failures applied so far — no barrier can intervene before the start.
func (e *shardedEngine) scheduleArrivals(now sim.Time) {
	next := e.nextBarrier(now)
	for e.nextArrival < len(e.arrivals) && e.arrivals[e.nextArrival].at.Before(next) {
		p := e.arrivals[e.nextArrival]
		e.nextArrival++
		e.arrive(p.d, p.at)
	}
}

// arrive gives churn download d a fresh circuit and starts its transfer
// at the exact arrival instant.
func (e *shardedEngine) arrive(d *sdownload, at sim.Time) {
	if err := e.buildOn(d, e.failed); err != nil {
		if errors.Is(err, core.ErrCircuitRejected) {
			d.rejected = true
			e.churn.Rejected++
		}
		d.aborted = true
		e.churn.Aborted++
		return
	}
	d.started = true
	d.startAt = at
	e.startTransfer(d, at)
}

// scheduleStarts arms the initial transfers whose start instant falls
// inside the upcoming window.
func (e *shardedEngine) scheduleStarts(now sim.Time) {
	next := e.nextBarrier(now)
	for e.nextStart < len(e.starts) && e.starts[e.nextStart].at.Before(next) {
		p := e.starts[e.nextStart]
		e.nextStart++
		d := p.d
		if d.started || d.aborted || d.circuit == nil || d.circuit.Closed() {
			continue
		}
		d.started = true
		d.startAt = p.at
		e.startTransfer(d, p.at)
	}
}

// startTransfer begins (or, after a rebuild, restarts) d's transfer on
// its current circuit at the absolute instant `at`. The completion
// callback runs mid-window on the completing shard and writes only d's
// own fields; its timestamps derive from the schedule instant, so they
// are barrier-placement-independent.
func (e *shardedEngine) startTransfer(d *sdownload, at sim.Time) {
	d.done, d.handled = false, false
	size := e.sc.Circuits.sizeFor(d.index)
	d.circuit.ScheduleTransfer(at, size, e.sc.Circuits.Download, func(circTTLB time.Duration) {
		d.doneAt = at.Add(circTTLB)
		d.ttlb = d.doneAt.Sub(d.startAt)
		d.done = true
	})
}

// buildOn builds download d a circuit: a consensus-sampled path
// (excluding excl) on generated topologies, the declared path cycle on
// explicit ones. Rebuilds get distinct endpoint node IDs.
func (e *shardedEngine) buildOn(d *sdownload, excl map[netem.NodeID]bool) error {
	var path []netem.NodeID
	if e.cons != nil {
		descs, err := e.cons.SelectPathExcluding(e.pathRNG, e.hops(), excl)
		if err != nil {
			return err
		}
		path = make([]netem.NodeID, len(descs))
		for i, dd := range descs {
			path[i] = dd.ID
		}
	} else {
		path = e.sc.Circuits.path(d.index % len(e.sc.Circuits.Paths))
	}
	source := fmt.Sprintf("client-%03d", d.index)
	sink := fmt.Sprintf("server-%03d", d.index)
	if d.rebuild > 0 {
		source = fmt.Sprintf("%s.r%d", source, d.rebuild)
		sink = fmt.Sprintf("%s.r%d", sink, d.rebuild)
	}
	c, err := e.sn.BuildCircuit(core.CircuitSpec{
		Source:       netem.NodeID(source),
		Sink:         netem.NodeID(sink),
		SourceAccess: e.access,
		SinkAccess:   e.access,
		Relays:       path,
		Transport:    e.arm.Transport,
		TraceCwnd:    e.sc.Probes.TraceCwnd,
	})
	if err != nil {
		return err
	}
	d.circuit = c
	e.churn.Built++
	return nil
}

// abort tears download d down before completion.
func (e *shardedEngine) abort(d *sdownload) {
	if d.done || d.aborted || d.circuit == nil || d.circuit.Closed() {
		return
	}
	d.aborted = true
	e.churn.Aborted++
	e.teardown(d.circuit)
}

// teardown closes a circuit and accounts its lifetime.
func (e *shardedEngine) teardown(c *core.ShardedCircuit) {
	if c.Closed() {
		return
	}
	c.Teardown()
	e.churn.TornDown++
	e.churn.Lifetime.Add(c.Lifetime().Seconds())
}

// hops returns the sampled path length on generated topologies.
func (e *shardedEngine) hops() int {
	if e.sc.Circuits.Hops > 0 {
		return e.sc.Circuits.Hops
	}
	return 3
}

// crossesShardedRelay reports whether the circuit's path contains the
// relay.
func crossesShardedRelay(c *core.ShardedCircuit, id netem.NodeID) bool {
	for _, r := range c.Relays() {
		if r == id {
			return true
		}
	}
	return false
}

// finished reports whether the trial can stop at this barrier: every
// download accounted, every linger applied, and nothing pending. The
// decision reads only shard-count-invariant state, so the stop barrier
// — and with it every trailing trunk statistic — is invariant too.
func (e *shardedEngine) finished() bool {
	if e.sc.RunFullHorizon {
		return false
	}
	if e.nextStart < len(e.starts) || e.nextArrival < len(e.arrivals) || len(e.lingers) > 0 {
		return false
	}
	for _, d := range e.downloads {
		if !d.aborted && !d.handled {
			return false
		}
	}
	return true
}

// collect renders the downloads into outcomes, in index order. With
// churn on, circuits still alive at the stop are torn down so their
// lifetimes are accounted; static trials leave them standing, like the
// single-clock engine.
func (e *shardedEngine) collect(rep int) []CircuitOutcome {
	out := make([]CircuitOutcome, len(e.downloads))
	for i, d := range e.downloads {
		o := CircuitOutcome{
			Replication: rep,
			Index:       i,
			TTLB:        d.ttlb,
			Done:        d.done,
			Aborted:     d.aborted,
			Rejected:    d.rejected,
			StartAt:     d.startAt,
			Rebuilds:    d.rebuild,
		}
		if d.circuit != nil {
			if e.churnOn {
				e.teardown(d.circuit)
			}
			o.OptimalCells = d.circuit.ModelPath().OptimalSourceWindowCells()
			st := d.circuit.SourceSender().Stats()
			o.ExitCwnd, o.ExitTime, o.Restarts = st.ExitCwnd, st.ExitTime, st.Restarts
			if e.sc.Probes.TraceCwnd {
				o.Trace = d.circuit.SourceTrace()
			}
		}
		out[i] = o
	}
	return out
}

// netStatsSharded snapshots the sharded fabric after a trial. The trunk
// list is in the unsharded fabric's global order, so the per-trunk
// table renders identically at every shard count.
func netStatsSharded(sn *core.ShardedNetwork) NetStats {
	fab := sn.Fabric()
	st := NetStats{
		UnknownDst: fab.UnknownDst(),
		Unroutable: fab.Unroutable(),
		SchedDrops: sn.SchedDrops(),
		Shard:      fab.RunStats(),
	}
	for _, l := range fab.Trunks() {
		st.Trunks = append(st.Trunks, TrunkStat{Name: l.Name(), Stats: l.Stats()})
	}
	return st
}

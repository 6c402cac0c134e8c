package scenario

import (
	"errors"
	"fmt"
	"time"

	"circuitstart/internal/arena"
	"circuitstart/internal/core"
	"circuitstart/internal/directory"
	"circuitstart/internal/faults"
	"circuitstart/internal/netem"
	"circuitstart/internal/pool"
	"circuitstart/internal/sim"
	"circuitstart/internal/transport"
	"circuitstart/internal/units"
	"circuitstart/internal/workload"
)

// CircuitEvents configures circuit-level churn: instead of a fixed set
// of circuits living forever, circuits become dynamic entities — new
// downloads arrive over freshly built circuits mid-run, completed
// circuits are torn down (their cell and timer state released back to
// the pools), and initial circuits can be killed on a schedule. The
// zero value disables churn: the trial is static (see hasChurn).
type CircuitEvents struct {
	// ArrivalRate, when positive, adds an open-loop Poisson process of
	// new downloads (mean arrivals per second, stream
	// "scenario-churn"): at each arrival a fresh circuit is built — its
	// path sampled bandwidth-weighted from the consensus on generated
	// topologies (excluding currently-failed relays), or cycling
	// Circuits.Paths on explicit ones — and a TransferSize download
	// starts immediately.
	ArrivalRate float64
	// Arrivals bounds the Poisson process (required with ArrivalRate).
	Arrivals int
	// TeardownDelay is how long a completed download's circuit lingers
	// before teardown (0 = torn down at the completion instant). With
	// churn active this applies to every download, initial or arrived.
	// Setting it alone (no arrivals, no scheduled teardowns) still
	// enables the lifecycle engine: every circuit is torn down after
	// its download completes.
	TeardownDelay time.Duration
	// Teardowns schedules hard teardowns of initial circuits: the
	// circuit is closed at the given instant regardless of transfer
	// progress, and an unfinished download is recorded as aborted.
	Teardowns []TeardownEvent
}

// enabled reports whether any circuit-level churn is configured.
func (ce CircuitEvents) enabled() bool {
	return ce.ArrivalRate > 0 || len(ce.Teardowns) > 0 || ce.TeardownDelay > 0
}

// TeardownEvent schedules the teardown of one initial circuit.
type TeardownEvent struct {
	// At is the teardown instant.
	At sim.Time
	// Index names the initial circuit (0 ≤ Index < Circuits.Count).
	Index int
}

// RelayEventKind selects a relay churn action.
type RelayEventKind int

const (
	// RelayFail takes the relay out of service: it blackholes every
	// frame until recovery. Circuits crossing it at that instant are
	// torn down; arms with Rebuild set rebuild them over a fresh path.
	RelayFail RelayEventKind = iota
	// RelayRecover puts a failed relay back in service; new circuits
	// may be built through it again.
	RelayRecover
)

// RelayEvent schedules a relay failure or recovery.
type RelayEvent struct {
	At    sim.Time
	Relay netem.NodeID
	Kind  RelayEventKind
}

// hasChurn reports whether the scenario exercises the dynamic circuit
// lifecycle at all. When false the trial is static: both engines keep
// a completed download's circuit up, stop once every initial download
// has settled, and report no lifecycle ledger.
func (sc *Scenario) hasChurn() bool {
	return sc.CircuitEvents.enabled() || len(sc.RelayEvents) > 0 || sc.Faults.Enabled()
}

// validateChurn checks the churn-specific scenario fields. Called from
// validate once the topology fields are known-good.
func (sc *Scenario) validateChurn() error {
	ce := sc.CircuitEvents
	if ce.ArrivalRate < 0 || ce.Arrivals < 0 {
		return fmt.Errorf("scenario: negative churn arrival configuration")
	}
	if (ce.ArrivalRate > 0) != (ce.Arrivals > 0) {
		return fmt.Errorf("scenario: churn arrivals need both ArrivalRate and Arrivals")
	}
	if ce.TeardownDelay < 0 {
		return fmt.Errorf("scenario: negative teardown delay")
	}
	for i, td := range ce.Teardowns {
		if td.At <= 0 {
			return fmt.Errorf("scenario: teardown %d at %v", i, td.At)
		}
		if td.Index < 0 || td.Index >= sc.Circuits.Count {
			return fmt.Errorf("scenario: teardown %d names circuit %d of %d", i, td.Index, sc.Circuits.Count)
		}
	}
	relayKnown := sc.relayIDSet()
	for i, ev := range sc.RelayEvents {
		if ev.At <= 0 {
			return fmt.Errorf("scenario: relay event %d at %v", i, ev.At)
		}
		if ev.Kind != RelayFail && ev.Kind != RelayRecover {
			return fmt.Errorf("scenario: relay event %d has unknown kind %d", i, ev.Kind)
		}
		if !relayKnown[ev.Relay] {
			return fmt.Errorf("scenario: relay event %d names unknown relay %q", i, ev.Relay)
		}
	}
	for i, a := range sc.Arms {
		if a.Rebuild && sc.Topology.Population == nil {
			return fmt.Errorf("scenario: arm %d (%q) sets Rebuild, which needs a generated Population consensus", i, a.Name)
		}
	}
	var hasTrunk func(a, b netem.SwitchID) bool
	if sc.Topology.Fabric != nil {
		hasTrunk = sc.Topology.Fabric.HasTrunk
	}
	if err := sc.Faults.Validate(relayKnown, hasTrunk); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	return nil
}

// relayIDSet returns the set of relay IDs the topology will contain —
// explicit IDs, or the deterministic names of the generated population.
func (sc *Scenario) relayIDSet() map[netem.NodeID]bool {
	out := make(map[netem.NodeID]bool)
	for _, r := range sc.Topology.Relays {
		out[r.ID] = true
	}
	if p := sc.Topology.Population; p != nil {
		for i := 0; i < p.N; i++ {
			out[workload.RelayID(i)] = true
		}
	}
	return out
}

// download is one logical transfer tracked by the churn engine. A
// download survives circuit rebuilds: when a relay failure kills its
// circuit, a Rebuild arm gives it a fresh circuit and restarts the
// transfer, and the download's TTLB spans first start to final
// completion — so repeated startups show up in the distribution.
type download struct {
	index    int
	circuit  *core.Circuit
	startAt  sim.Time // first transfer start
	started  bool
	done     bool
	aborted  bool
	killed   bool // evicted by a relay's resource manager
	rejected bool // refused at circuit admission
	ttlb     time.Duration
	rebuild  int

	// Recovery-engine state (zero unless Faults.Recovery is enabled;
	// the arena store zeroes these on reuse like everything else).
	lastProgress uint64   // progressOf at the last watchdog check
	stalled      bool     // inside a declared stall
	stalledAt    sim.Time // when the open stall was declared
	retries      int      // rebuild attempts spent from the budget
	wgen         uint64   // watchdog generation; bumps invalidate chains
	ended        bool     // availability accounting closed
	est          *transport.RTTEstimator
	delivered    units.DataSize // bytes banked from discarded circuits
}

// churnEngine drives one trial on a single network/clock — static
// trials and the dynamic circuit lifecycle alike — so everything it
// does is deterministic regardless of the worker pool running the
// trial.
type churnEngine struct {
	sc     Scenario
	arm    Arm
	n      *core.Network
	cons   *directory.Consensus // nil on explicit topologies
	access netem.AccessConfig
	seed   int64
	// churnOn is sc.hasChurn(). Without it a completed download keeps
	// its circuit, the clock stops once the last initial download
	// settles (unless RunFullHorizon), and the ledger is reported zero.
	churnOn bool

	pathRNG   *sim.RNG // churn-arrival and rebuild path sampling
	downloads []*download
	dlStore   *pool.Objects[download] // nil on a static trial
	failed    map[netem.NodeID]bool
	churn     ChurnStats

	// Fault-injection state (nil/zero without a fault plan).
	inj      *faults.Injector
	recovRNG *sim.RNG // recovery rebuild path sampling, own stream
	resil    ResilienceStats
}

// newDownload allocates a ledger entry — from the trial arena's store
// under churn (churn-heavy trials create thousands), from the heap on a
// static trial.
func (e *churnEngine) newDownload(index int) *download {
	d := e.dlStore.Get()
	d.index = index
	return d
}

// runChurn executes one trial on the single-clock engine: initial
// circuits start per the arrival process, then — when the scenario has
// churn — arrivals, scheduled teardowns, relay failure/recovery and
// faults play out on the trial's clock.
func runChurn(sc Scenario, arm Arm, seed int64, rep int, ar *arena.Arena) ([]CircuitOutcome, NetStats, ChurnStats, ResilienceStats, error) {
	e := &churnEngine{
		sc:      sc,
		arm:     arm,
		seed:    seed,
		churnOn: sc.hasChurn(),
		failed:  make(map[netem.NodeID]bool),
	}
	if e.churnOn {
		// A static trial never samples a path and holds only its initial
		// downloads, so it skips the path stream's math/rand source
		// (5 kB), which every one-circuit sweep point would otherwise
		// pay, and the download store.
		e.pathRNG = sim.NewRNG(seed, "scenario-churn-paths")
		e.dlStore = arena.Slot[download](ar, "scenario.downloads")
	}
	e.churn.Lifetime = newLifetimeDist(arm.Name)

	var initial []*core.Circuit
	if sc.Topology.Population != nil {
		wsc, err := workload.Build(seed, workloadParams(sc, arm, ar))
		if err != nil {
			return nil, NetStats{}, ChurnStats{}, ResilienceStats{}, err
		}
		e.n, e.cons, initial = wsc.Network, wsc.Consensus, wsc.Circuits
		e.access = wsc.Params.ClientAccess
	} else {
		n, circuits, access, err := buildExplicit(sc, arm, seed, ar)
		if err != nil {
			return nil, NetStats{}, ChurnStats{}, ResilienceStats{}, err
		}
		e.n, initial, e.access = n, circuits, access
	}
	scheduleEvents(e.n, sc.Events)
	e.watchKills()
	if sc.Faults.Enabled() {
		e.inj = faults.Install(e.n, sc.Faults, seed)
	}
	if sc.Faults.Recovery.Enabled {
		e.recovRNG = sim.NewRNG(seed, "faults-recovery-paths")
		e.resil.TTR = newTTRDist(arm.Name)
	}

	// Initial downloads follow the scenario's declared arrival process,
	// drawn from the runner's own streams ("scenario-starts" /
	// "scenario-arrivals") — except a static generated trial without a
	// SizeMix, whose uniform stagger comes from "workload-starts", the
	// stream workload.Scenario.Run draws, so the paper experiments keep
	// their seeded outputs. Enabling churn is allowed to change the
	// realized start times. A nil slot is a circuit refused at admission
	// by a resource-limited relay; its download is recorded as rejected
	// and never starts.
	starts := "scenario-starts"
	if !e.churnOn && sc.Topology.Population != nil && len(sc.Circuits.SizeMix) == 0 {
		starts = "workload-starts"
	}
	delays := arrivalDelays(seed, sc.Circuits, len(initial), starts)
	for i, c := range initial {
		d := e.newDownload(i)
		d.circuit = c
		e.downloads = append(e.downloads, d)
		if c == nil {
			d.aborted, d.rejected = true, true
			e.churn.Aborted++
			e.churn.Rejected++
			continue
		}
		e.churn.Built++
		if c.Closed() && e.churnOn {
			// Evicted at build time (admission kill), before the kill
			// observer was installed — account the lifecycle here. A
			// static trial settles it at its start instead.
			d.aborted, d.killed = true, true
			e.churn.Aborted++
			e.churn.TornDown++
			e.churn.Lifetime.Add(c.Lifetime().Seconds())
			continue
		}
		e.scheduleStart(d, delays[i])
	}

	// Churn arrivals: an independent Poisson stream, so the initial
	// workload is unchanged by enabling churn.
	if ce := sc.CircuitEvents; ce.ArrivalRate > 0 {
		rng := sim.NewRNG(seed, "scenario-churn")
		var at time.Duration
		for j := 0; j < ce.Arrivals; j++ {
			at += time.Duration(rng.Exponential(1/ce.ArrivalRate) * float64(time.Second))
			d := e.newDownload(len(e.downloads))
			e.downloads = append(e.downloads, d)
			delay := at
			e.n.Clock().After(delay, func() { e.arrive(d) })
		}
	}
	for _, td := range sc.CircuitEvents.Teardowns {
		d := e.downloads[td.Index]
		e.n.Clock().At(td.At, func() { e.abort(d) })
	}
	for _, ev := range sc.RelayEvents {
		ev := ev
		e.n.Clock().At(ev.At, func() { e.relayEvent(ev) })
	}

	// With churn there is no Stop(): teardown releases every timer, so
	// the queue drains on its own once the last download finishes (or
	// the horizon cuts a stalled one off). A static trial stops in
	// settle.
	e.n.RunUntil(sc.Horizon)
	net := netStats(e.n)
	out := e.collect(rep)
	if !e.churnOn {
		e.churn = ChurnStats{}
	}
	return out, net, e.churn, e.resil, nil
}

// settle stops a static trial's clock once every initial download has
// settled — completed, killed, or found closed at its start — unless
// RunFullHorizon keeps it running to the horizon.
func (e *churnEngine) settle() {
	if e.churnOn || e.sc.RunFullHorizon {
		return
	}
	for _, d := range e.downloads {
		if !d.done && !d.aborted {
			return
		}
	}
	e.n.Clock().Stop()
}

// scheduleStart arms download d's first transfer start after delay. A
// scheduled teardown may kill the circuit before the staggered start
// arrives (the start is then dropped — the download is already
// accounted as aborted), and a relay failure may have replaced the
// circuit with a rebuilt one (the start then proceeds on it). On a
// static trial a circuit evicted at build time settles here.
func (e *churnEngine) scheduleStart(d *download, delay time.Duration) {
	start := func() {
		if !e.churnOn && !d.aborted && d.circuit.Closed() {
			d.aborted, d.killed = true, true
			e.settle()
		}
		if d.started || d.aborted || d.circuit.Closed() {
			return
		}
		d.started = true
		d.startAt = e.n.Now()
		e.startTransfer(d)
	}
	if delay == 0 {
		start()
	} else {
		e.n.Clock().After(delay, start)
	}
}

// startTransfer begins (or, after a rebuild, restarts) d's transfer on
// its current circuit.
func (e *churnEngine) startTransfer(d *download) {
	size := e.sc.Circuits.sizeFor(d.index)
	onDone := func(time.Duration) { e.complete(d) }
	if e.sc.Circuits.Download {
		d.circuit.TransferBackward(size, onDone)
	} else {
		d.circuit.Transfer(size, onDone)
	}
	if e.recoveryOn() {
		e.ensureEst(d)
		d.wgen++ // invalidate watchdog chains from a previous circuit
		d.lastProgress = e.progressOf(d)
		e.armWatchdog(d)
	}
}

// watchKills observes resource-manager evictions. The kill path tears
// the circuit down directly (bypassing e.teardown), so the lifecycle
// accounting happens here, and the victim's download is marked killed
// rather than left looking stalled.
func (e *churnEngine) watchKills() {
	e.n.OnKill(func(c *core.Circuit) {
		for _, d := range e.downloads {
			if d.circuit == c && !d.done && !d.aborted {
				d.aborted, d.killed = true, true
				e.churn.Aborted++
				e.endActive(d)
				break
			}
		}
		e.churn.TornDown++
		e.churn.Lifetime.Add(c.Lifetime().Seconds())
		e.settle()
	})
}

// arrive builds a fresh circuit for churn download d and starts it.
// With recovery enabled, a failed build enters the retry/backoff ladder
// instead of aborting outright — build failures get the same treatment
// as stalls.
func (e *churnEngine) arrive(d *download) {
	if e.recoveryOn() {
		if err := e.buildOn(d, e.pathRNG, e.inj.ExcludedWith(e.failed)); err != nil {
			if errors.Is(err, core.ErrCircuitRejected) {
				e.churn.Rejected++
			}
			e.tryRebuild(d)
			return
		}
	} else if !e.buildFresh(d) {
		return
	}
	d.started = true
	d.startAt = e.n.Now()
	e.startTransfer(d)
}

// buildFresh gives download d a freshly built circuit. On a generated
// topology the path is sampled from the consensus, skipping failed
// relays; explicit topologies cycle the declared paths (arrival
// indices run past Count). If no path is currently available (every
// candidate for some position is down) or the build fails, the
// download is recorded as aborted and buildFresh reports false.
func (e *churnEngine) buildFresh(d *download) bool {
	err := e.buildOn(d, e.pathRNG, e.failed)
	if err == nil {
		return true
	}
	if errors.Is(err, core.ErrCircuitRejected) {
		d.rejected = true
		e.churn.Rejected++
	}
	// Building over declared relays cannot fail after validation;
	// treat a failure as an aborted download rather than a panic.
	d.aborted = true
	e.churn.Aborted++
	e.endActive(d)
	return false
}

// buildOn builds download d a circuit over a path sampled with the
// given RNG stream, excluding excl — the shared primitive under churn
// rebuilds (pathRNG, scripted failures) and recovery rebuilds (recovRNG,
// failures plus fault-suspect relays). On success the circuit is
// installed and counted; the caller owns failure accounting.
func (e *churnEngine) buildOn(d *download, rng *sim.RNG, excl map[netem.NodeID]bool) error {
	var path []netem.NodeID
	if e.cons != nil {
		descs, err := e.cons.SelectPathExcluding(rng, e.hops(), excl)
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
	c, err := e.buildCircuit(d, path)
	if err != nil {
		return err
	}
	d.circuit = c
	e.churn.Built++
	return nil
}

// hops returns the sampled path length on generated topologies.
func (e *churnEngine) hops() int {
	if e.sc.Circuits.Hops > 0 {
		return e.sc.Circuits.Hops
	}
	return 3
}

// buildCircuit builds a circuit for download d over the given relay
// path. Rebuilds get distinct endpoint node IDs (ports cannot be
// re-attached), marked with the rebuild ordinal.
func (e *churnEngine) buildCircuit(d *download, path []netem.NodeID) (*core.Circuit, error) {
	source := fmt.Sprintf("client-%03d", d.index)
	sink := fmt.Sprintf("server-%03d", d.index)
	if d.rebuild > 0 {
		source = fmt.Sprintf("%s.r%d", source, d.rebuild)
		sink = fmt.Sprintf("%s.r%d", sink, d.rebuild)
	}
	return e.n.BuildCircuit(core.CircuitSpec{
		Source:       netem.NodeID(source),
		Sink:         netem.NodeID(sink),
		SourceAccess: e.access,
		SinkAccess:   e.access,
		Relays:       path,
		Transport:    e.arm.Transport,
		TraceCwnd:    e.sc.Probes.TraceCwnd,
	})
}

// complete records download d's completion and schedules its circuit's
// teardown after the configured linger. A static trial keeps the
// circuit up.
func (e *churnEngine) complete(d *download) {
	d.done = true
	d.ttlb = e.n.Now().Sub(d.startAt)
	if e.recoveryOn() {
		if d.stalled {
			// Completion arrived before the watchdog saw new progress;
			// the recovery span runs to the completion instant.
			e.recordRecovery(d)
		}
		e.endActive(d)
	}
	if !e.churnOn {
		e.settle()
		return
	}
	circ := d.circuit
	if delay := e.sc.CircuitEvents.TeardownDelay; delay > 0 {
		e.n.Clock().After(delay, func() { e.teardown(circ) })
	} else {
		e.teardown(circ)
	}
}

// abort tears download d down before completion (a scheduled teardown
// of an initial circuit).
func (e *churnEngine) abort(d *download) {
	if d.done || d.aborted || d.circuit == nil || d.circuit.Closed() {
		return
	}
	d.aborted = true
	e.churn.Aborted++
	e.endActive(d)
	e.teardown(d.circuit)
}

// teardown closes a circuit and accounts its lifetime.
func (e *churnEngine) teardown(c *core.Circuit) {
	if c.Closed() {
		return
	}
	c.Teardown()
	e.churn.TornDown++
	e.churn.Lifetime.Add(c.Lifetime().Seconds())
}

// relayEvent applies one relay failure or recovery. On failure, every
// live circuit crossing the relay is torn down; Rebuild arms give the
// affected downloads fresh circuits over paths that avoid all
// currently-failed relays and restart their transfers from scratch —
// each rebuild pays a full startup again.
func (e *churnEngine) relayEvent(ev RelayEvent) {
	r := e.n.Relay(ev.Relay)
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
		if !crossesRelay(d.circuit, ev.Relay) {
			continue
		}
		if e.recoveryOn() {
			// Bank the dying circuit's delivered bytes for goodput.
			d.delivered += e.receivedOn(d.circuit)
		}
		e.teardown(d.circuit)
		if !e.arm.Rebuild || e.cons == nil {
			d.aborted = true
			e.churn.Aborted++
			e.endActive(d)
			continue
		}
		d.rebuild++
		if !e.buildFresh(d) {
			continue
		}
		e.churn.Rebuilt++
		// Restart only a transfer that was actually running; a download
		// still waiting for its staggered start keeps that schedule and
		// simply starts on the rebuilt circuit.
		if d.started {
			e.startTransfer(d)
		}
	}
}

// crossesRelay reports whether the circuit's path contains the relay.
func crossesRelay(c *core.Circuit, id netem.NodeID) bool {
	for _, r := range c.Relays() {
		if r == id {
			return true
		}
	}
	return false
}

// collect renders the engine's downloads into outcomes, in download
// index order. Circuits still alive at the horizon are torn down here
// so their lifetimes and pooled state are accounted too.
func (e *churnEngine) collect(rep int) []CircuitOutcome {
	out := make([]CircuitOutcome, len(e.downloads))
	for i, d := range e.downloads {
		o := CircuitOutcome{
			Replication: rep,
			Index:       i,
			TTLB:        d.ttlb,
			Done:        d.done,
			Aborted:     d.aborted,
			Killed:      d.killed,
			Rejected:    d.rejected,
			StartAt:     d.startAt,
			Rebuilds:    d.rebuild,
		}
		if d.circuit != nil {
			e.teardown(d.circuit)
			o.OptimalCells = d.circuit.ModelPath().OptimalSourceWindowCells()
			st := d.circuit.SourceSender().Stats()
			o.ExitCwnd, o.ExitTime, o.Restarts = st.ExitCwnd, st.ExitTime, st.Restarts
			if e.sc.Probes.TraceCwnd {
				o.Trace = d.circuit.SourceTrace()
			}
		}
		if e.recoveryOn() {
			// Downloads still running (or stalled) at the horizon close
			// their availability accounting here; endpoint objects
			// survive Teardown, so the final circuit's bytes are
			// readable for goodput.
			e.endActive(d)
			e.resil.GoodputBytes += float64(d.delivered + e.receivedOn(d.circuit))
		}
		out[i] = o
	}
	return out
}

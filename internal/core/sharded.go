package core

import (
	"fmt"
	"time"

	"circuitstart/internal/arena"
	"circuitstart/internal/cell"
	"circuitstart/internal/endpoint"
	"circuitstart/internal/metrics"
	"circuitstart/internal/model"
	"circuitstart/internal/netem"
	"circuitstart/internal/onion"
	"circuitstart/internal/relay"
	"circuitstart/internal/sim"
	"circuitstart/internal/transport"
	"circuitstart/internal/units"
)

// ShardedNetwork is a Network partitioned across per-core shards: one
// core.Network per shard, each with its own clock, arena, frame/cell/
// segment pools and relay set, coupled only through the ShardedFabric's
// conservative-lookahead boundary queues.
//
// Determinism contract: identities and circuit keys are drawn from ONE
// global "onion-keys" stream in global AddRelay/BuildCircuit order —
// exactly the order the unsharded engine consumes — so a sharded trial
// is byte-identical to the unsharded one for any shard count. All
// construction, circuit builds and teardowns are control-plane
// operations: they may only run while every shard clock is parked (at
// t = 0 or inside a RunWindows barrier).
type ShardedNetwork struct {
	fab    *netem.ShardedFabric
	shards []*Network

	keyRNG     *sim.RNG
	identities map[netem.NodeID]*onion.Identity
	relayShard map[netem.NodeID]int

	nextAutoCirc uint32
	circuits     map[cell.CircID]*ShardedCircuit
}

// NewShardedNetwork partitions spec into at most shards shards and
// builds one per-shard Network. arenas, when non-nil, supplies one
// arena per effective shard (len ≥ plan.Shards; extra entries are
// ignored) so trial loops reuse pools across trials; nil allocates
// fresh substrate.
func NewShardedNetwork(seed int64, spec netem.GraphSpec, shards int, arenas []*arena.Arena) (*ShardedNetwork, error) {
	plan, err := netem.PartitionGraph(spec, shards)
	if err != nil {
		return nil, err
	}
	if arenas != nil && len(arenas) < plan.Shards {
		return nil, fmt.Errorf("core: %d arenas for %d shards", len(arenas), plan.Shards)
	}
	if arenas == nil {
		arenas = make([]*arena.Arena, plan.Shards)
		for i := range arenas {
			arenas[i] = arena.New()
		}
	}
	clocks := make([]*sim.Clock, plan.Shards)
	for i := range clocks {
		clocks[i] = arenas[i].Clock
	}
	var fab *netem.ShardedFabric
	sn := &ShardedNetwork{
		keyRNG:     sim.NewRNG(seed, "onion-keys"),
		identities: make(map[netem.NodeID]*onion.Identity),
		relayShard: make(map[netem.NodeID]int),
		circuits:   make(map[cell.CircID]*ShardedCircuit),
	}
	sn.shards = make([]*Network, plan.Shards)
	for i := 0; i < plan.Shards; i++ {
		i := i
		ar := arenas[i]
		sn.shards[i] = NewNetworkInArena(ar, seed, func(clock *sim.Clock, lossRNG *sim.RNG) netem.Fabric {
			if fab == nil {
				fab = netem.NewShardedFabric(spec, plan, clocks, lossRNG)
			}
			return fab.Shard(i)
		})
	}
	sn.fab = fab
	return sn, nil
}

// Fabric returns the sharded fabric (global trunk list, path queries,
// boundary accounting).
func (sn *ShardedNetwork) Fabric() *netem.ShardedFabric { return sn.fab }

// NumShards returns the effective shard count.
func (sn *ShardedNetwork) NumShards() int { return len(sn.shards) }

// Shard returns shard i's Network. Use it only for shard-local,
// control-plane inspection (relay stats, scheduler drops).
func (sn *ShardedNetwork) Shard(i int) *Network { return sn.shards[i] }

// ConfigureRelays applies the scheduling template on every shard (and,
// for the EWMA discipline, each shard's trunk links — boundary egress
// links included, so backbone scheduling is cut-invariant). Resource
// limits are rejected: an eviction tears a circuit down network-wide
// mid-window, which would touch foreign shards outside a barrier.
func (sn *ShardedNetwork) ConfigureRelays(cfg relay.Config) error {
	if cfg.Limits.Enabled() {
		return fmt.Errorf("core: resource limits are not supported on a sharded network")
	}
	for _, n := range sn.shards {
		if err := n.ConfigureRelays(cfg); err != nil {
			return err
		}
	}
	return nil
}

// AddRelay attaches a relay on the shard owning its home switch. The
// identity comes from the global key stream, in call order.
func (sn *ShardedNetwork) AddRelay(id netem.NodeID, access netem.AccessConfig) (*relay.Relay, error) {
	if _, dup := sn.relayShard[id]; dup {
		return nil, fmt.Errorf("core: relay %q already added", id)
	}
	ident, err := onion.NewIdentity(randReader{sn.keyRNG})
	if err != nil {
		return nil, fmt.Errorf("core: relay %q identity: %w", id, err)
	}
	shard := sn.fab.ShardOf(id)
	n := sn.shards[shard]
	r := relay.New(id, n.fabric, access, n.lossRNG)
	r.UseSegmentPool(n.ar.Segments)
	if err := r.Configure(n.relayCfg, n.killCircuit); err != nil {
		return nil, fmt.Errorf("core: relay %q: %w", id, err)
	}
	n.relays[id] = r
	n.identities[id] = ident
	sn.identities[id] = ident
	sn.relayShard[id] = shard
	return r, nil
}

// Relay returns an attached relay regardless of shard, or nil.
func (sn *ShardedNetwork) Relay(id netem.NodeID) *relay.Relay {
	shard, ok := sn.relayShard[id]
	if !ok {
		return nil
	}
	return sn.shards[shard].relays[id]
}

// RelayShard returns the shard a relay lives on and its clock, or
// (-1, nil) when unknown. Fault installers use it to schedule each
// episode on the owning shard.
func (sn *ShardedNetwork) RelayShard(id netem.NodeID) (int, *sim.Clock) {
	shard, ok := sn.relayShard[id]
	if !ok {
		return -1, nil
	}
	return shard, sn.shards[shard].clock
}

// SchedDrops totals scheduler drops across every shard.
func (sn *ShardedNetwork) SchedDrops() uint64 {
	var total uint64
	for _, n := range sn.shards {
		total += n.SchedDrops()
	}
	return total
}

// RunWindows executes the sharded trial (see ShardedFabric.RunWindows).
func (sn *ShardedNetwork) RunWindows(horizon sim.Time, barrier func(now sim.Time) bool) sim.Time {
	return sn.fab.RunWindows(horizon, barrier)
}

// SetWindow pins the barrier stride to a partition-independent value
// (see ShardedFabric.SetWindow).
func (sn *ShardedNetwork) SetWindow(d time.Duration) { sn.fab.SetWindow(d) }

// Trunk returns the directed trunk link a → b regardless of shard, or
// nil when the spec has no such trunk.
func (sn *ShardedNetwork) Trunk(a, b netem.SwitchID) *netem.Link { return sn.fab.Trunk(a, b) }

// TrunkClock returns the clock of the shard owning the a → b direction
// of a trunk — the only clock fault episodes conditioning that link may
// schedule on.
func (sn *ShardedNetwork) TrunkClock(a, b netem.SwitchID) *sim.Clock {
	return sn.shards[sn.fab.ShardOfSwitch(a)].clock
}

// RelayClock returns the clock of the shard a relay lives on, or nil
// when the relay is unknown.
func (sn *ShardedNetwork) RelayClock(id netem.NodeID) *sim.Clock {
	_, clk := sn.RelayShard(id)
	return clk
}

// ShardedCircuit is a circuit whose endpoints and relays may live on
// different shards. The data plane is unchanged — cells flow through
// relays and boundary links exactly as on one clock; only the
// control plane (build, transfer scheduling, teardown) is barrier-bound.
type ShardedCircuit struct {
	id   cell.CircID
	sn   *ShardedNetwork
	spec CircuitSpec

	source    *endpoint.Source
	sink      *endpoint.Sink
	srcShard  int
	sinkShard int
	path      model.Path

	sourceTrace *metrics.Series
	relayTraces []*metrics.Series

	transferStart sim.Time
	ttlb          time.Duration
	done          bool

	builtAt  sim.Time
	closedAt sim.Time
	closed   bool
}

// BuildCircuit mirrors Network.BuildCircuit across shards: the global
// key stream is consumed in the same order, each relay hop is wired on
// its owning shard, and the endpoints attach on theirs. Call only while
// all shard clocks are parked at the same instant.
func (sn *ShardedNetwork) BuildCircuit(spec CircuitSpec) (*ShardedCircuit, error) {
	if len(spec.Relays) == 0 {
		return nil, fmt.Errorf("core: circuit with no relays")
	}
	if spec.Source == "" || spec.Sink == "" {
		return nil, fmt.Errorf("core: circuit needs source and sink IDs")
	}
	if spec.ID == 0 {
		sn.nextAutoCirc++
		spec.ID = cell.CircID(sn.nextAutoCirc)
	}

	idents := make([]*onion.Identity, len(spec.Relays))
	for i, id := range spec.Relays {
		ident := sn.identities[id]
		if ident == nil {
			return nil, fmt.Errorf("core: relay %q not attached", id)
		}
		idents[i] = ident
	}
	clientCrypto, relayKeys, err := onion.BuildCircuit(randReader{sn.keyRNG}, idents)
	if err != nil {
		return nil, err
	}
	tmpl, err := spec.Transport.config()
	if err != nil {
		return nil, err
	}

	srcShard := sn.fab.ShardOf(spec.Source)
	sinkShard := sn.fab.ShardOf(spec.Sink)
	c := &ShardedCircuit{
		id: spec.ID, sn: sn, spec: spec,
		srcShard: srcShard, sinkShard: sinkShard,
		builtAt: sn.shards[srcShard].Now(),
	}

	for i, id := range spec.Relays {
		shard, ok := sn.relayShard[id]
		if !ok {
			return nil, fmt.Errorf("core: relay %q not attached", id)
		}
		n := sn.shards[shard]
		r := n.relays[id]
		pred := spec.Source
		if i > 0 {
			pred = spec.Relays[i-1]
		}
		succ := spec.Sink
		if i < len(spec.Relays)-1 {
			succ = spec.Relays[i+1]
		}
		hopCfg := tmpl
		if hopCfg.Startup, err = spec.Transport.policy(); err != nil {
			return nil, err
		}
		if spec.TraceCwnd {
			trace := metrics.NewSeries(fmt.Sprintf("cwnd_cells_%s", id))
			c.relayTraces = append(c.relayTraces, trace)
			clock := n.clock
			hopCfg.OnCwnd = func(cwnd float64, _ transport.Phase) {
				trace.Record(clock.Now(), cwnd)
			}
		}
		if !r.AddHop(spec.ID, pred, succ, relayKeys[i], hopCfg, i == len(spec.Relays)-1) {
			for _, prev := range spec.Relays[:i] {
				sn.Relay(prev).RemoveHop(spec.ID)
			}
			return nil, fmt.Errorf("core: circuit %d refused by relay %q: %w", spec.ID, id, ErrCircuitRejected)
		}
	}

	srcNet, sinkNet := sn.shards[srcShard], sn.shards[sinkShard]
	srcCfg := tmpl
	if srcCfg.Startup, err = spec.Transport.policy(); err != nil {
		return nil, err
	}
	if spec.TraceCwnd {
		c.sourceTrace = metrics.NewSeries("cwnd_cells_source")
		clock := srcNet.clock
		srcCfg.OnCwnd = func(cwnd float64, _ transport.Phase) {
			c.sourceTrace.Record(clock.Now(), cwnd)
		}
	}
	c.source = endpoint.NewSource(spec.Source, srcNet.fabric, spec.SourceAccess,
		spec.ID, clientCrypto, spec.Relays[0], srcCfg, srcNet.lossRNG)
	c.source.UseCellPool(srcNet.ar.Cells)
	c.source.UseSegmentPool(srcNet.ar.Segments)
	sinkCfg := tmpl
	if sinkCfg.Startup, err = spec.Transport.policy(); err != nil {
		return nil, err
	}
	c.sink = endpoint.NewSink(spec.Sink, sinkNet.fabric, spec.SinkAccess,
		spec.ID, spec.Relays[len(spec.Relays)-1], sinkCfg, sinkNet.lossRNG)
	c.sink.UseCellPool(sinkNet.ar.Cells)
	c.sink.UseSegmentPool(sinkNet.ar.Segments)

	seq := make([]netem.NodeID, 0, len(spec.Relays)+2)
	seq = append(seq, spec.Source)
	seq = append(seq, spec.Relays...)
	seq = append(seq, spec.Sink)
	nodes := make([]model.Node, len(seq))
	nodes[0] = model.FromAccess(spec.SourceAccess)
	for i, id := range spec.Relays {
		nodes[i+1] = model.FromAccess(sn.Relay(id).Port().Config())
	}
	nodes[len(nodes)-1] = model.FromAccess(spec.SinkAccess)
	fwd := make([][]model.Transit, len(seq)-1)
	rev := make([][]model.Transit, len(seq)-1)
	for i := 0; i+1 < len(seq); i++ {
		for _, l := range sn.fab.PathTransits(seq[i], seq[i+1]) {
			lc := l.Config()
			fwd[i] = append(fwd[i], model.Transit{Rate: lc.Rate, Delay: lc.Delay})
		}
		for _, l := range sn.fab.PathTransits(seq[i+1], seq[i]) {
			lc := l.Config()
			rev[i] = append(rev[i], model.Transit{Rate: lc.Rate, Delay: lc.Delay})
		}
	}
	c.path = model.NewPathWithTransits(nodes, fwd, rev)

	sn.circuits[spec.ID] = c
	return c, nil
}

// SourceSender returns the source's hop sender.
func (c *ShardedCircuit) SourceSender() *transport.Sender { return c.source.Sender() }

// ModelPath returns the analytic model of the circuit's node sequence.
func (c *ShardedCircuit) ModelPath() model.Path { return c.path }

// SourceTrace returns the source's cwnd time series, or nil.
func (c *ShardedCircuit) SourceTrace() *metrics.Series { return c.sourceTrace }

// ScheduleTransfer arms a transfer of size bytes starting at the
// absolute instant `at`: the sink-side expectation on the sink's shard
// and the first send on the source's shard, both at the same virtual
// instant — exactly the two calls Circuit.Transfer makes on one clock.
// download selects the backward direction. `at` must not precede either
// shard's clock; call at a barrier (or t = 0).
func (c *ShardedCircuit) ScheduleTransfer(at sim.Time, size units.DataSize, download bool, onComplete func(ttlb time.Duration)) {
	if size <= 0 {
		panic(fmt.Sprintf("core: ScheduleTransfer(%v)", size))
	}
	if c.closed {
		panic("core: ScheduleTransfer on a torn-down circuit")
	}
	c.transferStart = at
	c.done = false
	complete := func(end sim.Time) {
		c.ttlb = end.Sub(c.transferStart)
		c.done = true
		if onComplete != nil {
			onComplete(c.ttlb)
		}
	}
	srcClock := c.sn.shards[c.srcShard].clock
	sinkClock := c.sn.shards[c.sinkShard].clock
	if download {
		srcClock.At(at, func() { c.source.ExpectDownload(size, complete) })
		sinkClock.At(at, func() { c.sink.SendBackward(size) })
	} else {
		sinkClock.At(at, func() { c.sink.Expect(size, complete) })
		srcClock.At(at, func() { c.source.Send(size) })
	}
}

// Teardown releases the circuit's state on every shard it touches.
// Call only at a barrier: RemoveHop mutates relays across shards.
// Idempotent.
func (c *ShardedCircuit) Teardown() {
	if c.closed {
		return
	}
	c.closed = true
	c.closedAt = c.sn.shards[c.srcShard].Now()
	delete(c.sn.circuits, c.id)
	for _, id := range c.spec.Relays {
		if r := c.sn.Relay(id); r != nil {
			r.RemoveHop(c.id)
		}
	}
	c.source.Close()
	c.sink.Close()
}

// Closed reports whether the circuit has been torn down.
func (c *ShardedCircuit) Closed() bool { return c.closed }

// Lifetime returns how long the circuit has been alive: ClosedAt −
// BuiltAt once torn down, the source shard's now − BuiltAt while up.
func (c *ShardedCircuit) Lifetime() time.Duration {
	if c.closed {
		return c.closedAt.Sub(c.builtAt)
	}
	return c.sn.shards[c.srcShard].Now().Sub(c.builtAt)
}

// Relays returns the circuit's relay path (shared; do not modify).
func (c *ShardedCircuit) Relays() []netem.NodeID { return c.spec.Relays }

// Done reports whether the current transfer has completed. Read at
// barriers only — the completing shard writes it mid-window.
func (c *ShardedCircuit) Done() bool { return c.done }

// TTLB returns the most recent transfer's time-to-last-byte.
func (c *ShardedCircuit) TTLB() (time.Duration, bool) { return c.ttlb, c.done }

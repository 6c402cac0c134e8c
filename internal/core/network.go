// Package core assembles the substrates into runnable experiments: a
// Network owns the virtual clock, the topology fabric and the relay
// population; a Circuit is an onion-encrypted multi-hop path across it
// with a per-hop window-based transport on every hop.
//
// This is the layer the public circuitstart package re-exports: examples
// and benchmarks build a Network, add relays, build circuits and run
// transfers — everything below (event scheduling, links, cells, crypto,
// transport state machines) stays internal.
package core

import (
	"fmt"

	"circuitstart/internal/arena"
	"circuitstart/internal/cell"
	"circuitstart/internal/netem"
	"circuitstart/internal/onion"
	"circuitstart/internal/relay"
	"circuitstart/internal/resource"
	"circuitstart/internal/sched"
	"circuitstart/internal/sim"
)

// Network is an overlay under construction: attach relays, then build
// circuits across them. All nodes share one virtual clock and one
// topology fabric — the paper's star by default, or any netem.Fabric
// via NewNetworkWithFabric.
type Network struct {
	clock  *sim.Clock
	fabric netem.Fabric
	seed   int64

	relays     map[netem.NodeID]*relay.Relay
	identities map[netem.NodeID]*onion.Identity
	lossRNG    *sim.RNG
	keyRNG     *sim.RNG

	// ar is the arena the network draws its clock, its cell and segment
	// pools and its trial-lifetime objects (circuits) from; a standalone
	// network has one of its own. One arena serves every circuit on the
	// network: they are single-threaded on its shared clock.
	ar *arena.Arena

	nextAutoCirc uint32

	// relayCfg is the scheduling/limits template applied to every relay
	// added after ConfigureRelays; circuits registers live circuits so a
	// relay's resource manager can evict one network-wide, and onKill
	// observes those evictions (scenario engines mark the transfer).
	relayCfg relay.Config
	circuits map[cell.CircID]*Circuit
	onKill   func(*Circuit)
}

// FabricBuilder constructs a network's topology substrate on its clock.
// lossRNG is the network's shared loss stream ("netem-loss"), for
// fabrics whose trunks drop frames randomly.
type FabricBuilder func(clock *sim.Clock, lossRNG *sim.RNG) netem.Fabric

// NewNetwork creates an empty star-topology network — the paper's
// evaluation setup. All randomness (key generation, loss processes)
// derives deterministically from seed.
func NewNetwork(seed int64) *Network {
	return NewNetworkWithFabric(seed, func(clock *sim.Clock, _ *sim.RNG) netem.Fabric {
		return netem.NewStarFabric(clock)
	})
}

// NewNetworkWithFabric creates an empty network whose topology is
// produced by build — e.g. a netem.GraphSpec's Build for a routed
// backbone. Every trial must build its own fabric; reusing one across
// networks would share clocks and queues.
func NewNetworkWithFabric(seed int64, build FabricBuilder) *Network {
	return NewNetworkInArena(nil, seed, build)
}

// NewNetworkInArena is NewNetworkWithFabric drawing its clock, its
// pools and its circuits from a trial arena instead of a fresh one.
// Callers running trial sequences pair it with ar.ResetTrial() between
// trials: the network object itself is rebuilt (maps, fabric, relays are
// trial-specific state) but the expensive recyclable substrate — event
// free list, every store of the arena — carries over. The arena's clock
// must be idle and reset when called; a nil arena is a fresh one.
func NewNetworkInArena(ar *arena.Arena, seed int64, build FabricBuilder) *Network {
	if ar == nil {
		ar = arena.New()
	}
	lossRNG := sim.NewRNG(seed, "netem-loss")
	fab := build(ar.Clock, lossRNG)
	if fab == nil {
		panic("core: FabricBuilder returned nil")
	}
	if fab.Clock() != ar.Clock {
		panic("core: fabric built on a foreign clock")
	}
	// The fabric's frame pool moves to the arena's stores, so the frame
	// working set survives this trial's fabric, ResetTrial can reclaim
	// stranded frames, and every frame death frees the segment it carries.
	*fab.FramePool() = *ar.Frames
	return &Network{
		clock:      ar.Clock,
		fabric:     fab,
		seed:       seed,
		relays:     make(map[netem.NodeID]*relay.Relay),
		identities: make(map[netem.NodeID]*onion.Identity),
		lossRNG:    lossRNG,
		keyRNG:     sim.NewRNG(seed, "onion-keys"),
		ar:         ar,
		circuits:   make(map[cell.CircID]*Circuit),
	}
}

// ConfigureRelays sets the scheduling/limits template applied to every
// relay added afterwards, and — when the config selects the EWMA
// discipline — installs the same scheduler on the fabric's trunks, so
// backbone contention is also circuit-aware. Call it before AddRelay;
// a zero config is a valid no-op (the byte-identical default).
func (n *Network) ConfigureRelays(cfg relay.Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	n.relayCfg = cfg
	if cfg.Scheduler == "ewma" {
		for _, l := range n.fabric.Trunks() {
			l.SetScheduler(sched.NewEWMA(n.clock, cfg.HalfLife.Duration()))
		}
	}
	return nil
}

// OnKill installs an observer invoked just before a resource-limit
// eviction tears a circuit down. Scenario engines use it to mark the
// victim's transfer as killed rather than silently incomplete.
func (n *Network) OnKill(fn func(*Circuit)) { n.onKill = fn }

// killCircuit is the eviction path a relay's resource manager triggers:
// flag the circuit, notify the observer, and tear it down network-wide
// (which releases every relay's hop, including the killer's).
func (n *Network) killCircuit(id cell.CircID) {
	c := n.circuits[id]
	if c == nil || c.closed {
		return
	}
	if n.onKill != nil {
		n.onKill(c)
	}
	c.Teardown()
}

// ResourceStats pools the resource-manager counters across all relays
// (zero-valued when no relay runs with limits).
func (n *Network) ResourceStats() resource.Stats {
	var total resource.Stats
	for _, r := range n.relays {
		if mgr := r.Resources(); mgr != nil {
			total.Merge(mgr.Stats())
		}
	}
	return total
}

// SchedDrops totals the frames dropped by installed schedulers
// (bandwidth policers) across relay uplinks and fabric trunks.
func (n *Network) SchedDrops() uint64 {
	var total uint64
	for _, r := range n.relays {
		total += r.Port().Uplink().Stats().SchedDrops
	}
	for _, l := range n.fabric.Trunks() {
		total += l.Stats().SchedDrops
	}
	return total
}

// Clock returns the shared virtual clock.
func (n *Network) Clock() *sim.Clock { return n.clock }

// Fabric exposes the underlying topology (for link statistics, trunk
// capacity events and routing diagnostics).
func (n *Network) Fabric() netem.Fabric { return n.fabric }

// Seed returns the experiment seed the network was created with.
func (n *Network) Seed() int64 { return n.seed }

// Now returns the current virtual time.
func (n *Network) Now() sim.Time { return n.clock.Now() }

// Run executes scheduled events until the queue drains and returns the
// final virtual time.
func (n *Network) Run() sim.Time { return n.clock.Run() }

// RunUntil executes events up to the horizon.
func (n *Network) RunUntil(horizon sim.Time) sim.Time { return n.clock.RunUntil(horizon) }

// AddRelay attaches a relay node with the given access parameters and
// generates its onion identity. Adding the same ID twice is an error.
func (n *Network) AddRelay(id netem.NodeID, access netem.AccessConfig) (*relay.Relay, error) {
	if _, dup := n.relays[id]; dup {
		return nil, fmt.Errorf("core: relay %q already added", id)
	}
	ident, err := onion.NewIdentity(randReader{n.keyRNG})
	if err != nil {
		return nil, fmt.Errorf("core: relay %q identity: %w", id, err)
	}
	r := relay.New(id, n.fabric, access, n.lossRNG)
	r.UseSegmentPool(n.ar.Segments)
	if err := r.Configure(n.relayCfg, n.killCircuit); err != nil {
		return nil, fmt.Errorf("core: relay %q: %w", id, err)
	}
	n.relays[id] = r
	n.identities[id] = ident
	return r, nil
}

// MustAddRelay is AddRelay for static topologies where a failure is a
// programming error.
func (n *Network) MustAddRelay(id netem.NodeID, access netem.AccessConfig) *relay.Relay {
	r, err := n.AddRelay(id, access)
	if err != nil {
		panic(err)
	}
	return r
}

// Relay returns an attached relay, or nil.
func (n *Network) Relay(id netem.NodeID) *relay.Relay { return n.relays[id] }

// randReader adapts a deterministic RNG stream to io.Reader for key
// generation, keeping circuit builds reproducible across runs.
type randReader struct{ rng *sim.RNG }

func (r randReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(r.rng.Intn(256))
	}
	return len(p), nil
}

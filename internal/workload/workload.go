// Package workload generates the synthetic scenarios of the paper's
// aggregate experiment: "a randomly generated network of Tor relays,
// connected in a star topology" carrying concurrent circuits that each
// download a fixed amount of data.
//
// Live Tor consensus data is replaced by seeded synthetic distributions
// (log-normal relay bandwidth, uniform access latency), which preserve
// the property the experiment depends on — heterogeneous relays so that
// bottleneck depth and position vary across circuits. See DESIGN.md's
// substitution table.
package workload

import (
	"errors"
	"fmt"
	"time"

	"circuitstart/internal/arena"
	"circuitstart/internal/core"
	"circuitstart/internal/directory"
	"circuitstart/internal/netem"
	"circuitstart/internal/relay"
	"circuitstart/internal/sim"
	"circuitstart/internal/units"
)

// RelayParams shapes the synthetic relay population.
type RelayParams struct {
	// N is the number of relays.
	N int
	// BandwidthMedian is the median relay access rate. Relay bandwidth
	// is log-normally distributed around it.
	BandwidthMedian units.DataRate
	// BandwidthSigma is the log-normal scale (0 = default 0.6, a
	// moderately heavy tail).
	BandwidthSigma float64
	// MinBandwidth, MaxBandwidth clamp the samples.
	MinBandwidth, MaxBandwidth units.DataRate
	// DelayMin, DelayMax bound the uniform access propagation delay.
	DelayMin, DelayMax time.Duration
	// QueueCap bounds each relay's access-link queues (0 = unbounded).
	QueueCap units.DataSize
	// GuardFrac and ExitFrac select which prefix/suffix of the relay
	// population additionally holds the Guard/Exit flag (every relay is
	// Middle-capable). Defaults: 0.4 each. Each flag goes to at least
	// one relay.
	GuardFrac, ExitFrac float64
}

// DefaultRelayParams returns a Tor-flavoured population: median 20
// Mbit/s with a heavy tail, 2–20 ms access delay, 512 kB queues.
func DefaultRelayParams(n int) RelayParams {
	return RelayParams{
		N:               n,
		BandwidthMedian: units.Mbps(20),
		BandwidthSigma:  0.6,
		MinBandwidth:    units.Mbps(2),
		MaxBandwidth:    units.Mbps(400),
		DelayMin:        2 * time.Millisecond,
		DelayMax:        20 * time.Millisecond,
		QueueCap:        512 * units.Kilobyte,
		GuardFrac:       0.4,
		ExitFrac:        0.4,
	}
}

// Relay is one generated relay: its consensus descriptor plus the
// access configuration used to attach it to the star.
type Relay struct {
	Desc   directory.Descriptor
	Access netem.AccessConfig
}

// RelayID returns the deterministic node ID of generated relay i —
// the single source of the population's naming scheme, used by
// everything that must refer to a generated relay before the
// population exists (e.g. scenario relay-event validation).
func RelayID(i int) netem.NodeID {
	return netem.NodeID(fmt.Sprintf("relay-%03d", i))
}

// GenerateRelays samples a relay population from params using the
// network's seed (stream "workload-relays").
func GenerateRelays(seed int64, params RelayParams) ([]Relay, error) {
	if params.N <= 0 {
		return nil, fmt.Errorf("workload: %d relays", params.N)
	}
	if params.BandwidthMedian <= 0 {
		return nil, fmt.Errorf("workload: non-positive median bandwidth")
	}
	sigma := params.BandwidthSigma
	if sigma == 0 {
		sigma = 0.6
	}
	if params.DelayMin < 0 || params.DelayMax < params.DelayMin {
		return nil, fmt.Errorf("workload: invalid delay range [%v, %v]", params.DelayMin, params.DelayMax)
	}
	guards := params.GuardFrac
	if guards == 0 {
		guards = 0.4
	}
	exits := params.ExitFrac
	if exits == 0 {
		exits = 0.4
	}
	if guards < 0 || guards > 1 || exits < 0 || exits > 1 {
		return nil, fmt.Errorf("workload: flag fractions outside [0,1]")
	}

	rng := sim.NewRNG(seed, "workload-relays")
	relays := make([]Relay, params.N)
	// At least one relay holds each flag, so a population too small for
	// the fractions to reach one relay (N ≤ 2 by default) still has a
	// guard and an exit.
	nGuard := max(1, int(guards*float64(params.N)))
	nExit := max(1, int(exits*float64(params.N)))
	for i := range relays {
		bw := units.DataRate(rng.LogNormal(0, sigma) * float64(params.BandwidthMedian))
		if params.MinBandwidth > 0 && bw < params.MinBandwidth {
			bw = params.MinBandwidth
		}
		if params.MaxBandwidth > 0 && bw > params.MaxBandwidth {
			bw = params.MaxBandwidth
		}
		delay := params.DelayMin
		if params.DelayMax > params.DelayMin {
			delay += time.Duration(rng.Int63n(int64(params.DelayMax - params.DelayMin)))
		}
		flags := directory.FlagMiddle
		if i < nGuard {
			flags |= directory.FlagGuard
		}
		if i >= params.N-nExit {
			flags |= directory.FlagExit
		}
		id := RelayID(i)
		relays[i] = Relay{
			Desc: directory.Descriptor{
				ID: id, Bandwidth: bw, Latency: delay, Flags: flags,
			},
			Access: netem.AccessConfig{
				UpRate: bw, DownRate: bw, Delay: delay, QueueCap: params.QueueCap,
			},
		}
	}
	return relays, nil
}

// ScenarioParams describes the aggregate download experiment: K
// concurrent circuits over one shared relay population, each moving
// TransferSize and reporting its time-to-last-byte.
type ScenarioParams struct {
	Relays RelayParams
	// Circuits is the number of concurrent circuits (the paper uses 50).
	Circuits int
	// HopsPerCircuit is the path length (Tor default 3).
	HopsPerCircuit int
	// TransferSize is the fixed download per circuit.
	TransferSize units.DataSize
	// Transport configures every circuit's hops.
	Transport core.TransportOptions
	// ClientAccess configures source/sink attachment. Zero selects a
	// fast 100 Mbit/s, 5 ms access.
	ClientAccess netem.AccessConfig
	// Fabric, when set, replaces the default star with a routed
	// backbone built from this spec (see GenerateBackbone); relays and
	// endpoints home to its switches and contend on its trunks.
	Fabric *netem.GraphSpec
	// StartSpread staggers circuit start times uniformly in [0,
	// StartSpread) so the experiment does not begin with a synchronized
	// burst (0 = all start at t = 0).
	StartSpread time.Duration
	// Download, when true, runs the transfers in the backward
	// direction (server → client through the onion), the direction the
	// paper's "download times" refer to. The default forward direction
	// is congestion-equivalent on symmetric access links and matches
	// the published figure tables.
	Download bool
	// TraceCwnd records per-circuit window traces (memory-heavy; only
	// the single-circuit figures need it).
	TraceCwnd bool
	// RelayConfig configures every generated relay's circuit scheduler
	// and resource limits. The zero value is the byte-identical default
	// (FIFO, no caps). With a circuit cap and a reject-new policy some
	// builds may be refused: the corresponding Circuits slot is nil.
	RelayConfig relay.Config
	// TrainSize caps cell-train coalescing on every link of the trial —
	// client access, relay access and backbone trunks alike. Values ≤ 1
	// keep the byte-identical one-event-per-cell pipeline; larger values
	// batch back-to-back queued cells into single link events (see
	// netem.LinkConfig.TrainSize).
	TrainSize int
	// Arena, when set, draws the trial's clock, pools and circuits from
	// this per-worker arena instead of allocating fresh ones. The caller owns the trial sequencing: the arena's
	// clock must be reset (arena.ResetTrial) before each Build.
	Arena *arena.Arena
}

// DefaultScenario mirrors the paper's aggregate experiment: 50 circuits
// of 3 hops over 40 relays, a fixed 500 kB download each (the paper's
// CDF spans roughly 0–3 s of download time; this size puts the median
// in that range on the default population).
func DefaultScenario() ScenarioParams {
	return ScenarioParams{
		Relays:         DefaultRelayParams(40),
		Circuits:       50,
		HopsPerCircuit: 3,
		TransferSize:   500 * units.Kilobyte,
		StartSpread:    200 * time.Millisecond,
	}
}

// Scenario is a built, runnable aggregate experiment.
type Scenario struct {
	Network   *core.Network
	Consensus *directory.Consensus
	Circuits  []*core.Circuit
	Params    ScenarioParams
}

// Build instantiates the network, relays and circuits of a scenario.
// Paths are selected bandwidth-weighted from the generated consensus,
// exactly as the directory package implements Tor's selection.
func Build(seed int64, p ScenarioParams) (*Scenario, error) {
	if p.Circuits <= 0 {
		return nil, fmt.Errorf("workload: %d circuits", p.Circuits)
	}
	if p.HopsPerCircuit <= 0 {
		return nil, fmt.Errorf("workload: %d hops per circuit", p.HopsPerCircuit)
	}
	if p.TransferSize <= 0 {
		return nil, fmt.Errorf("workload: transfer size %v", p.TransferSize)
	}
	if p.TrainSize < 0 {
		return nil, fmt.Errorf("workload: negative train size %d", p.TrainSize)
	}
	if p.ClientAccess.UpRate == 0 {
		p.ClientAccess = netem.Symmetric(units.Mbps(100), 5*time.Millisecond, p.Relays.QueueCap)
	}
	p.ClientAccess.TrainSize = p.TrainSize

	relays, err := GenerateRelays(seed, p.Relays)
	if err != nil {
		return nil, err
	}
	descs := make([]directory.Descriptor, len(relays))
	n, err := newNetwork(seed, p.Fabric, p.Arena, p.TrainSize)
	if err != nil {
		return nil, err
	}
	if err := n.ConfigureRelays(p.RelayConfig); err != nil {
		return nil, err
	}
	for i, r := range relays {
		descs[i] = r.Desc
		r.Access.TrainSize = p.TrainSize
		if _, err := n.AddRelay(r.Desc.ID, r.Access); err != nil {
			return nil, err
		}
	}
	consensus, err := directory.NewConsensus(descs)
	if err != nil {
		return nil, err
	}

	pathRNG := sim.NewRNG(seed, "workload-paths")
	sc := &Scenario{Network: n, Consensus: consensus, Params: p}
	for i := 0; i < p.Circuits; i++ {
		path, err := consensus.SelectPath(pathRNG, p.HopsPerCircuit)
		if err != nil {
			return nil, fmt.Errorf("workload: circuit %d: %w", i, err)
		}
		ids := make([]netem.NodeID, len(path))
		for j, d := range path {
			ids[j] = d.ID
		}
		c, err := n.BuildCircuit(core.CircuitSpec{
			Source:       netem.NodeID(fmt.Sprintf("client-%03d", i)),
			Sink:         netem.NodeID(fmt.Sprintf("server-%03d", i)),
			SourceAccess: p.ClientAccess,
			SinkAccess:   p.ClientAccess,
			Relays:       ids,
			Transport:    p.Transport,
			TraceCwnd:    p.TraceCwnd,
		})
		if err != nil {
			if errors.Is(err, core.ErrCircuitRejected) {
				// A capped relay refused the build; the slot stays nil
				// so indices keep lining up with the path RNG draws.
				sc.Circuits = append(sc.Circuits, nil)
				continue
			}
			return nil, fmt.Errorf("workload: circuit %d: %w", i, err)
		}
		sc.Circuits = append(sc.Circuits, c)
	}
	return sc, nil
}

// newNetwork builds a trial network on the star (fabric == nil) or on a
// fresh fabric from the spec. The spec is validated here so a malformed
// backbone surfaces as an error, not a panic inside a worker. trainSize
// is stamped onto a deep copy of the spec's trunks (the original is
// shared across parallel workers and must never be mutated).
func newNetwork(seed int64, fabric *netem.GraphSpec, ar *arena.Arena, trainSize int) (*core.Network, error) {
	build := func(clock *sim.Clock, _ *sim.RNG) netem.Fabric {
		return netem.NewStarFabric(clock)
	}
	if fabric != nil {
		if err := fabric.Validate(); err != nil {
			return nil, err
		}
		spec := fabric.Clone()
		for i := range spec.Trunks {
			spec.Trunks[i].Config.TrainSize = trainSize
		}
		build = func(clock *sim.Clock, rng *sim.RNG) netem.Fabric {
			return spec.Build(clock, rng)
		}
	}
	return core.NewNetworkInArena(ar, seed, build), nil
}

// Result is one circuit's outcome.
type Result struct {
	Circuit int
	TTLB    time.Duration
	Done    bool
}

// Run starts every circuit's transfer (staggered by StartSpread) and
// executes the simulation until all transfers complete or the horizon
// passes. It returns per-circuit results in circuit order.
func (sc *Scenario) Run(horizon sim.Time) []Result {
	p := sc.Params
	startRNG := sim.NewRNG(sc.Network.Seed(), "workload-starts")
	remaining := 0
	for _, c := range sc.Circuits {
		if c != nil {
			remaining++
		}
	}
	finished := make([]bool, len(sc.Circuits))
	finish := func(i int) {
		if finished[i] {
			return
		}
		finished[i] = true
		remaining--
		if remaining == 0 {
			sc.Network.Clock().Stop()
		}
	}
	idx := make(map[*core.Circuit]int, len(sc.Circuits))
	for i, c := range sc.Circuits {
		if c != nil {
			idx[c] = i
		}
	}
	// A resource-limit eviction counts its circuit as finished, so a
	// kill cannot stall the early stop.
	sc.Network.OnKill(func(c *core.Circuit) {
		if i, ok := idx[c]; ok {
			finish(i)
		}
	})
	for i, c := range sc.Circuits {
		// Draw the start delay even for rejected (nil) circuits so the
		// stagger of the surviving ones is independent of rejections.
		delay := time.Duration(0)
		if p.StartSpread > 0 {
			delay = time.Duration(startRNG.Int63n(int64(p.StartSpread)))
		}
		if c == nil {
			continue
		}
		i, circ := i, c
		sc.Network.Clock().After(delay, func() {
			if circ.Closed() {
				// Evicted before its start (admission kill at build
				// time, or mid-stagger); nothing left to transfer.
				finish(i)
				return
			}
			done := func(time.Duration) { finish(i) }
			if p.Download {
				circ.TransferBackward(p.TransferSize, done)
			} else {
				circ.Transfer(p.TransferSize, done)
			}
		})
	}
	sc.Network.RunUntil(horizon)

	results := make([]Result, len(sc.Circuits))
	for i, c := range sc.Circuits {
		if c == nil {
			results[i] = Result{Circuit: i}
			continue
		}
		ttlb, done := c.TTLB()
		results[i] = Result{Circuit: i, TTLB: ttlb, Done: done}
	}
	return results
}

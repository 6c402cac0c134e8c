package core

import (
	"errors"
	"fmt"
	"time"

	"circuitstart/internal/arena"
	"circuitstart/internal/cell"
	"circuitstart/internal/endpoint"
	"circuitstart/internal/metrics"
	"circuitstart/internal/model"
	"circuitstart/internal/netem"
	"circuitstart/internal/onion"
	"circuitstart/internal/sim"
	"circuitstart/internal/transport"
	"circuitstart/internal/units"
)

// TransportOptions selects the start-up policy and congestion-control
// parameters applied at every hop of a circuit. The zero value is the
// paper's configuration: CircuitStart with γ = 4, Vegas α/β defaults,
// feedback-clocked windows.
type TransportOptions struct {
	// Policy names the start-up scheme: "circuitstart" (default),
	// "slowstart", "circuitstart-halve", "slowstart-compensated",
	// "backtap" or "fixed" (see transport.PolicyByName).
	Policy string
	// Gamma is the start-up exit threshold (0 = paper default 4).
	Gamma float64
	// Compensation selects CircuitStart's exit-window estimator.
	Compensation transport.Compensation
	// Alpha, Beta are the Vegas avoidance thresholds (0 = defaults).
	Alpha, Beta float64
	// WindowClock selects feedback (default) or ack window accounting.
	WindowClock transport.WindowClock
	// FixedWindow, with Policy "fixed", pins the window to this many
	// cells and disables avoidance — the static-window baseline.
	FixedWindow float64
	// RestartRounds configures the dynamic re-probe extension: after
	// this many consecutive underutilized avoidance rounds with data
	// waiting, a sender re-enters the ramp. Zero selects
	// defaultRestartRounds; a negative value disables the extension
	// (the strictly-as-published algorithm for ablations).
	//
	// The extension is on by default because a fully simultaneous
	// multi-hop ramp has transient interlocks the paper's description
	// does not address: a relay whose successor is still ramping can
	// read the successor's lagging window as a bottleneck, exit with a
	// tiny window, and then need seconds of one-cell-per-RTT growth to
	// recover. The paper names exactly this adaptation as future work.
	RestartRounds int
	// SevereRemeasure is the downward counterpart: when an avoidance
	// round's queue estimate exceeds Beta by this factor, re-run the
	// drain measurement and shrink straight to the result. Zero selects
	// defaultSevereRemeasure; negative disables.
	SevereRemeasure float64
}

// Default dynamic-adaptation parameters (see TransportOptions).
const (
	defaultRestartRounds   = 3
	defaultSevereRemeasure = 4.0
)

// policy instantiates the startup scheme. A fresh value per sender keeps
// hops independent even if a policy ever grows state.
func (o TransportOptions) policy() (transport.Startup, error) {
	name := o.Policy
	if name == "" {
		name = "circuitstart"
	}
	p, err := transport.PolicyByName(name, o.Gamma)
	if err != nil {
		return nil, err
	}
	if cs, ok := p.(*transport.CircuitStart); ok {
		cs.Compensation = o.Compensation
	}
	return p, nil
}

// config renders the options into a transport.Config template (Clock,
// Circ, Send and hooks are filled in by the node that owns the sender).
func (o TransportOptions) config() (transport.Config, error) {
	p, err := o.policy()
	if err != nil {
		return transport.Config{}, err
	}
	restart := o.RestartRounds
	if restart == 0 {
		restart = defaultRestartRounds
	} else if restart < 0 {
		restart = 0
	}
	remeasure := o.SevereRemeasure
	if remeasure == 0 {
		remeasure = defaultSevereRemeasure
	} else if remeasure < 0 {
		remeasure = 0
	}
	cfg := transport.Config{
		Startup:         p,
		Alpha:           o.Alpha,
		Beta:            o.Beta,
		WindowClock:     o.WindowClock,
		RestartRounds:   restart,
		SevereRemeasure: remeasure,
	}
	if o.Policy == "fixed" {
		cfg.DisableAvoidance = true
		if o.FixedWindow > 0 {
			cfg.InitialCwnd = o.FixedWindow
			cfg.MinCwnd = o.FixedWindow
			cfg.MaxCwnd = o.FixedWindow
		}
	}
	return cfg, nil
}

// ErrCircuitRejected is wrapped by BuildCircuit when a relay's
// resource manager refuses the circuit at admission. Callers that
// tolerate rejection (overload scenarios) test for it with errors.Is;
// everything else treats it like any other build failure.
var ErrCircuitRejected = errors.New("circuit rejected at admission")

// CircuitSpec describes one circuit to build across a Network.
type CircuitSpec struct {
	// ID is the circuit identifier. Zero selects the next free ID.
	ID cell.CircID
	// Source and Sink name the endpoints' node IDs (attached here).
	Source, Sink netem.NodeID
	// SourceAccess, SinkAccess are the endpoints' star attachments.
	SourceAccess, SinkAccess netem.AccessConfig
	// Relays is the path, first hop first. All must be attached already.
	Relays []netem.NodeID
	// Transport configures every hop's sender.
	Transport TransportOptions
	// TraceCwnd records the source's congestion window over time
	// (Figure 1's upper panels).
	TraceCwnd bool
}

// Circuit is a built, runnable circuit.
type Circuit struct {
	id      cell.CircID
	network *Network
	spec    CircuitSpec

	source *endpoint.Source
	sink   *endpoint.Sink
	path   model.Path

	sourceTrace *metrics.Series // source cwnd in cells

	transferStart sim.Time
	ttlb          time.Duration
	done          bool

	builtAt  sim.Time
	closedAt sim.Time
	closed   bool
}

// BuildCircuit constructs the circuit: per-hop key establishment with
// each relay, endpoint attachment, and transport wiring at every hop.
func (n *Network) BuildCircuit(spec CircuitSpec) (*Circuit, error) {
	if len(spec.Relays) == 0 {
		return nil, fmt.Errorf("core: circuit with no relays")
	}
	if spec.Source == "" || spec.Sink == "" {
		return nil, fmt.Errorf("core: circuit needs source and sink IDs")
	}
	if spec.ID == 0 {
		n.nextAutoCirc++
		spec.ID = cell.CircID(n.nextAutoCirc)
	}

	idents := make([]*onion.Identity, len(spec.Relays))
	for i, id := range spec.Relays {
		ident := n.identities[id]
		if ident == nil {
			return nil, fmt.Errorf("core: relay %q not attached", id)
		}
		idents[i] = ident
	}
	clientCrypto, relayKeys, err := onion.BuildCircuit(randReader{n.keyRNG}, idents)
	if err != nil {
		return nil, err
	}

	tmpl, err := spec.Transport.config()
	if err != nil {
		return nil, err
	}

	// Trial-lifetime object: drawn from the arena so churned circuits
	// stop costing a heap allocation each. The pointer is valid until the
	// arena's next ResetTrial.
	c := arena.Slot[Circuit](n.ar, "core.circuits").Get()
	*c = Circuit{id: spec.ID, network: n, spec: spec, builtAt: n.Now()}

	// Wire the relay hops. Hop i of the circuit runs between node i and
	// node i+1 of the sequence source, relays..., sink.
	for i, id := range spec.Relays {
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
		// Fresh policy value per sender.
		if hopCfg.Startup, err = spec.Transport.policy(); err != nil {
			return nil, err
		}
		if !r.AddHop(spec.ID, pred, succ, relayKeys[i], hopCfg, i == len(spec.Relays)-1) {
			// Admission refused: unwind the hops already wired so the
			// earlier relays release their (admitted) state.
			for _, prev := range spec.Relays[:i] {
				n.relays[prev].RemoveHop(spec.ID)
			}
			return nil, fmt.Errorf("core: circuit %d refused by relay %q: %w", spec.ID, id, ErrCircuitRejected)
		}
	}

	// Source endpoint with its own sender config.
	srcCfg := tmpl
	if srcCfg.Startup, err = spec.Transport.policy(); err != nil {
		return nil, err
	}
	if spec.TraceCwnd {
		c.sourceTrace = metrics.NewSeries("cwnd_cells_source")
		clock := n.clock
		srcCfg.OnCwnd = func(cwnd float64, _ transport.Phase) {
			c.sourceTrace.Record(clock.Now(), cwnd)
		}
	}
	c.source = endpoint.NewSource(spec.Source, n.fabric, spec.SourceAccess,
		spec.ID, clientCrypto, spec.Relays[0], srcCfg, n.lossRNG)
	c.source.UseCellPool(n.ar.Cells)
	c.source.UseSegmentPool(n.ar.Segments)
	sinkCfg := tmpl
	if sinkCfg.Startup, err = spec.Transport.policy(); err != nil {
		return nil, err
	}
	c.sink = endpoint.NewSink(spec.Sink, n.fabric, spec.SinkAccess,
		spec.ID, spec.Relays[len(spec.Relays)-1], sinkCfg, n.lossRNG)
	c.sink.UseCellPool(n.ar.Cells)
	c.sink.UseSegmentPool(n.ar.Segments)

	// Analytic model of the same path, including any backbone trunks
	// each hop crosses on a routed fabric.
	seq := make([]netem.NodeID, 0, len(spec.Relays)+2)
	seq = append(seq, spec.Source)
	seq = append(seq, spec.Relays...)
	seq = append(seq, spec.Sink)
	nodes := make([]model.Node, len(seq))
	nodes[0] = model.FromAccess(spec.SourceAccess)
	for i, id := range spec.Relays {
		nodes[i+1] = model.FromAccess(n.relays[id].Port().Config())
	}
	nodes[len(nodes)-1] = model.FromAccess(spec.SinkAccess)
	// Forward and reverse routes separately: equal-cost routing may
	// send the two directions over different physical trunks.
	fwd := make([][]model.Transit, len(seq)-1)
	rev := make([][]model.Transit, len(seq)-1)
	for i := 0; i+1 < len(seq); i++ {
		for _, l := range n.fabric.PathTransits(seq[i], seq[i+1]) {
			lc := l.Config()
			fwd[i] = append(fwd[i], model.Transit{Rate: lc.Rate, Delay: lc.Delay})
		}
		for _, l := range n.fabric.PathTransits(seq[i+1], seq[i]) {
			lc := l.Config()
			rev[i] = append(rev[i], model.Transit{Rate: lc.Rate, Delay: lc.Delay})
		}
	}
	c.path = model.NewPathWithTransits(nodes, fwd, rev)

	n.circuits[spec.ID] = c
	return c, nil
}

// MustBuildCircuit is BuildCircuit for static scenarios. Test-only: the
// facade's documented Example and TestPublicAPIQuickstart build their
// circuits with it.
func (n *Network) MustBuildCircuit(spec CircuitSpec) *Circuit {
	c, err := n.BuildCircuit(spec)
	if err != nil {
		panic(err)
	}
	return c
}

// Source returns the data-origin endpoint.
func (c *Circuit) Source() *endpoint.Source { return c.source }

// Sink returns the destination endpoint.
func (c *Circuit) Sink() *endpoint.Sink { return c.sink }

// SourceSender returns the source's hop sender — the subject of the
// paper's cwnd traces.
func (c *Circuit) SourceSender() *transport.Sender { return c.source.Sender() }

// ModelPath returns the analytic model of the circuit's node sequence.
func (c *Circuit) ModelPath() model.Path { return c.path }

// SourceTrace returns the source's cwnd time series (cells), or nil if
// the circuit was built without TraceCwnd.
func (c *Circuit) SourceTrace() *metrics.Series { return c.sourceTrace }

// Transfer starts a transfer of size application bytes from source to
// sink at the current virtual time. When the last byte arrives, the
// circuit records its time-to-last-byte and invokes onComplete (which
// may be nil). A circuit runs one transfer at a time.
func (c *Circuit) Transfer(size units.DataSize, onComplete func(ttlb time.Duration)) {
	if size <= 0 {
		panic(fmt.Sprintf("core: Transfer(%v)", size))
	}
	if c.closed {
		panic("core: Transfer on a torn-down circuit")
	}
	c.transferStart = c.network.Now()
	c.done = false
	c.sink.Expect(size, func(at sim.Time) {
		c.ttlb = at.Sub(c.transferStart)
		c.done = true
		if onComplete != nil {
			onComplete(c.ttlb)
		}
	})
	c.source.Send(size)
}

// TransferBackward starts a transfer of size application bytes in the
// download direction — from the sink (the destination server, outside
// the onion) to the source (the client, which unwraps every layer). The
// exit relay seals and onion-encrypts the cells; each relay toward the
// client adds its layer. When the last byte arrives at the client, the
// circuit records the time-to-last-byte and invokes onComplete (which
// may be nil).
func (c *Circuit) TransferBackward(size units.DataSize, onComplete func(ttlb time.Duration)) {
	if size <= 0 {
		panic(fmt.Sprintf("core: TransferBackward(%v)", size))
	}
	if c.closed {
		panic("core: TransferBackward on a torn-down circuit")
	}
	c.transferStart = c.network.Now()
	c.done = false
	c.source.ExpectDownload(size, func(at sim.Time) {
		c.ttlb = at.Sub(c.transferStart)
		c.done = true
		if onComplete != nil {
			onComplete(c.ttlb)
		}
	})
	c.sink.SendBackward(size)
}

// Teardown closes the circuit and releases its state: every relay on
// the path drops the circuit's hop (both directions' transport
// instances close, their timer events returning to the clock's free
// list), and the endpoints shut down, dropping the unsent remainder of
// their transfers (origins build a cell only when it is transmitted, so
// there are no unsent cells to recycle). A transfer still in
// progress is abandoned — Done stays false and no completion callback
// fires. Frames already in flight when the circuit dies are absorbed
// (relays count them as UnknownCircuit, endpoints drop them silently).
// Teardown is idempotent.
func (c *Circuit) Teardown() {
	if c.closed {
		return
	}
	c.closed = true
	c.closedAt = c.network.Now()
	delete(c.network.circuits, c.id)
	for _, id := range c.spec.Relays {
		if r := c.network.relays[id]; r != nil {
			r.RemoveHop(c.id)
		}
	}
	c.source.Close()
	c.sink.Close()
}

// Closed reports whether the circuit has been torn down.
func (c *Circuit) Closed() bool { return c.closed }

// Lifetime returns how long the circuit has been alive: teardown −
// BuiltAt once torn down, now − BuiltAt while still up.
func (c *Circuit) Lifetime() time.Duration {
	if c.closed {
		return c.closedAt.Sub(c.builtAt)
	}
	return c.network.Now().Sub(c.builtAt)
}

// Relays returns the circuit's relay path, first hop first. The slice
// is shared; callers must not modify it.
func (c *Circuit) Relays() []netem.NodeID { return c.spec.Relays }

// Done reports whether the current transfer has completed.
func (c *Circuit) Done() bool { return c.done }

// TTLB returns the most recent transfer's time-to-last-byte. ok is
// false while a transfer is still in progress or none ever ran.
// Test-only: TestPublicAPIQuickstart and workload's
// TestFig1DownloadCDFScenarioEquivalence read download times with it.
func (c *Circuit) TTLB() (time.Duration, bool) { return c.ttlb, c.done }

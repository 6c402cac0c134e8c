package netem

import (
	"fmt"
	"time"

	"circuitstart/internal/sim"
	"circuitstart/internal/units"
)

// AccessConfig describes a node's attachment to the fabric: an uplink
// (node → fabric) and a downlink (fabric → node). The paper's evaluation
// connects randomly generated Tor relays "in a star topology", so a
// relay's access capacity is the natural bottleneck location; on routed
// fabrics the trunk links between switches contend as well.
type AccessConfig struct {
	UpRate   units.DataRate
	DownRate units.DataRate
	// Delay is the one-way propagation delay of each access link; the
	// node-to-node one-way delay through the fabric is the sum of the
	// two nodes' Delays plus any trunk delays on the route.
	Delay time.Duration
	// QueueCap bounds each access link's queue (0 = unbounded).
	QueueCap units.DataSize
	// LossProb applies independently on both access links.
	LossProb float64
	// TrainSize enables cell trains on both access links (see
	// LinkConfig.TrainSize). <= 1 caps every train at one frame.
	TrainSize int
}

// Validate checks the access configuration against the same rules
// NewLink enforces by panic, so scenario validation can reject a bad
// grid point cleanly before any fabric is built. The RNG requirement is
// not checked here: fabrics supply the loss stream at Attach time.
func (c AccessConfig) Validate() error {
	if c.UpRate <= 0 {
		return fmt.Errorf("netem: non-positive up rate %v", c.UpRate)
	}
	if c.DownRate <= 0 {
		return fmt.Errorf("netem: non-positive down rate %v", c.DownRate)
	}
	if c.Delay < 0 {
		return fmt.Errorf("netem: negative delay %v", c.Delay)
	}
	if c.LossProb < 0 || c.LossProb > 1 {
		return fmt.Errorf("netem: loss probability %v outside [0,1]", c.LossProb)
	}
	if c.TrainSize < 0 {
		return fmt.Errorf("netem: negative train size %d", c.TrainSize)
	}
	return nil
}

// Symmetric returns an AccessConfig with equal up/down rate.
func Symmetric(rate units.DataRate, delay time.Duration, queueCap units.DataSize) AccessConfig {
	return AccessConfig{UpRate: rate, DownRate: rate, Delay: delay, QueueCap: queueCap}
}

// Fabric is the pluggable topology substrate: it attaches node ports,
// routes frames between them, and accounts what happened on the way.
// StarFabric (the paper's hub-and-spoke switch) and GraphFabric (a
// routed multi-switch backbone) implement it; everything above netem —
// relays, endpoints, core.Network — works against this interface, so a
// scenario swaps topologies without touching the overlay.
type Fabric interface {
	// Clock returns the simulation clock the fabric runs on.
	Clock() *sim.Clock
	// Attach connects a node. The handler receives every frame addressed
	// to id; rng drives the access links' loss processes. Attaching the
	// same id twice, or a nil handler, panics.
	Attach(id NodeID, cfg AccessConfig, h Handler, rng *sim.RNG) *Port
	// Port returns the port of an attached node, or nil.
	Port(id NodeID) *Port
	// Nodes returns the attached node IDs in sorted order.
	Nodes() []NodeID
	// Trunks returns the fabric-internal links (switch-to-switch trunks)
	// in deterministic order; nil when the fabric has none (star).
	Trunks() []*Link
	// UnknownDst returns how many frames were addressed to detached
	// nodes (and silently dropped).
	UnknownDst() uint64
	// Unroutable returns how many frames were dropped because no route
	// existed between their switches (always 0 on a star).
	Unroutable() uint64
	// ResetStats zeroes the drop counters and every access and trunk
	// link's LinkStats, so a fabric reused across trials starts clean.
	ResetStats()
	// PathOneWay returns the analytic no-queueing one-way latency from a
	// to b for a frame of the given size. Panics on unattached nodes.
	PathOneWay(a, b NodeID, size units.DataSize) time.Duration
	// PathRTT returns the analytic no-queueing round-trip time between
	// two attached nodes for a frame of the given size in each direction.
	PathRTT(a, b NodeID, size units.DataSize) time.Duration
	// BottleneckRate returns the minimum forwarding rate along the node
	// sequence path. Panics on paths shorter than two nodes or with
	// unattached hops.
	BottleneckRate(path []NodeID) units.DataRate
	// PathTransits returns the fabric-internal links a frame from a to
	// b crosses between the two access links, in traversal order (nil
	// on a star). The analytic path model folds them into its per-hop
	// rates and latencies. Panics on unattached nodes.
	PathTransits(a, b NodeID) []*Link
	// FramePool returns the fabric's frame pool. The overlay uses it to
	// install an OnReclaim hook for payload wrappers; per-frame traffic
	// must keep going through Port.Send.
	FramePool() *FramePool
}

// Port is a node's view of the network: it sends frames into its uplink
// and receives deliveries from its downlink. Ports are created by a
// Fabric's Attach; the uplink feeds the fabric's routing stage.
type Port struct {
	id   NodeID
	up   *Link // node → fabric
	down *Link // fabric → node
	cfg  AccessConfig
	pool *FramePool // the owning fabric's frame pool (may be nil)
}

// ID returns the node ID this port belongs to.
func (p *Port) ID() NodeID { return p.id }

// Config returns the access configuration.
func (p *Port) Config() AccessConfig { return p.cfg }

// Uplink exposes the node → fabric link (for stats and tests).
func (p *Port) Uplink() *Link { return p.up }

// Downlink exposes the fabric → node link (for stats and tests).
func (p *Port) Downlink() *Link { return p.down }

// Send transmits payload of the given wire size to dst. It reports
// whether the uplink accepted the frame. The frame is drawn from the
// fabric's pool and recycled by the network when it dies (drop, loss,
// or delivery) — see Frame ownership.
func (p *Port) Send(dst NodeID, size units.DataSize, payload any) bool {
	return p.up.Send(p.newFrame(dst, size, payload, false))
}

// SendPriority transmits a control payload that serializes ahead of
// queued data frames on every link it crosses (the priority bit travels
// with the frame through the fabric).
func (p *Port) SendPriority(dst NodeID, size units.DataSize, payload any) bool {
	return p.up.Send(p.newFrame(dst, size, payload, true))
}

// SendCirc is Send with the frame tagged by its overlay circuit, so
// circuit schedulers installed on this uplink (or on trunks the frame
// crosses) can service circuits instead of a single FIFO. With no
// scheduler installed it behaves exactly like Send.
func (p *Port) SendCirc(dst NodeID, size units.DataSize, payload any, circ uint32) bool {
	f := p.newFrame(dst, size, payload, false)
	f.Circ = circ
	return p.up.Send(f)
}

func (p *Port) newFrame(dst NodeID, size units.DataSize, payload any, priority bool) *Frame {
	f := p.pool.Get()
	f.Src = p.id
	f.Dst = dst
	f.Size = size
	f.Payload = payload
	f.Priority = priority
	f.Circ = 0
	return f
}

// newPort wires a node's access links. ingress is the fabric's routing
// stage fed by the uplink; h consumes downlink deliveries. pool is the
// fabric's frame pool: the downlink is the terminal hop of every frame
// it carries, so it recycles frames after the handler returns.
func newPort(id NodeID, clock *sim.Clock, cfg AccessConfig, ingress, h Handler, rng *sim.RNG, pool *FramePool) *Port {
	p := &Port{id: id, cfg: cfg, pool: pool}
	p.up = NewLink(string(id)+"/up", clock, LinkConfig{
		Rate: cfg.UpRate, Delay: cfg.Delay, QueueCap: cfg.QueueCap,
		LossProb: cfg.LossProb, RNG: rng, TrainSize: cfg.TrainSize,
	}, ingress)
	p.up.UsePool(pool, false)
	p.down = NewLink(string(id)+"/down", clock, LinkConfig{
		Rate: cfg.DownRate, Delay: cfg.Delay, QueueCap: cfg.QueueCap,
		LossProb: cfg.LossProb, RNG: rng, TrainSize: cfg.TrainSize,
	}, h)
	p.down.UsePool(pool, true)
	return p
}

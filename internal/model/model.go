// Package model computes analytic baselines for the experiments — most
// importantly the source's *optimal congestion window* in a multi-hop
// circuit, the dashed reference line of the paper's Figure 1: "As a
// baseline, we developed a model to calculate the source's optimal
// congestion window in a multi-hop scenario."
//
// The model is a fluid approximation over the topology fabric: every
// hop traverses its endpoints' access links plus any fabric-internal
// transit links (backbone trunks) between them, a hop's no-load feedback
// round-trip is two one-way traversals (DATA forward, FEEDBACK control
// segment back), and in steady state each hop's feedback arrives at the
// rate of the slowest link downstream of it (backpressure). The minimal
// window that fully utilizes the circuit is then
//
//	W_opt(hop i) = downstreamBottleneckRate(i) × feedbackRTT(i)
//
// in cells — exactly the "length of the packet train that could be
// forwarded by the successor without additional delay" that CircuitStart
// estimates empirically.
package model

import (
	"fmt"
	"time"

	"circuitstart/internal/netem"
	"circuitstart/internal/transport"
	"circuitstart/internal/units"
)

// Node is one participant on the circuit's node sequence (source,
// relays, sink) described by its access parameters.
type Node struct {
	// UpRate and DownRate are the node's access link capacities.
	UpRate, DownRate units.DataRate
	// Delay is the one-way propagation delay of each access link.
	Delay time.Duration
}

// Transit is one fabric-internal link (a backbone trunk) a hop's frames
// cross between the two nodes' access links: one serialization at Rate
// plus one propagation Delay per traversal.
type Transit struct {
	Rate  units.DataRate
	Delay time.Duration
}

// FromAccess converts a netem access configuration to a model node.
func FromAccess(cfg netem.AccessConfig) Node {
	return Node{UpRate: cfg.UpRate, DownRate: cfg.DownRate, Delay: cfg.Delay}
}

// Path is the full node sequence of a circuit: source, each relay in
// order, sink. It must contain at least two nodes (one hop). On a
// routed fabric each hop may additionally cross transit links, possibly
// along different physical routes per direction (equal-cost paths).
type Path struct {
	nodes []Node
	// fwd[i] lists the fabric-internal links hop i crosses from node i
	// toward node i+1; rev[i] the links crossed back from node i+1
	// toward node i. Both nil on the one-switch star.
	fwd, rev [][]Transit
}

// NewPath validates the node sequence and builds a Path.
func NewPath(nodes []Node) Path {
	return NewPathWithTransits(nodes, nil, nil)
}

// NewPathWithTransits builds a Path whose hop i crosses forward[i]
// toward the sink and reverse[i] back toward the source — the analytic
// mirror of a circuit routed over a GraphFabric, where equal-cost
// routing may pick different physical paths per direction. Each list
// may be nil (the one-switch star, or a symmetric route mirroring the
// other list) or must have one entry (possibly nil) per hop.
func NewPathWithTransits(nodes []Node, forward, reverse [][]Transit) Path {
	if len(nodes) < 2 {
		panic(fmt.Sprintf("model: path needs >= 2 nodes, got %d", len(nodes)))
	}
	for i, n := range nodes {
		if n.UpRate <= 0 || n.DownRate <= 0 {
			panic(fmt.Sprintf("model: node %d with non-positive rate", i))
		}
		if n.Delay < 0 {
			panic(fmt.Sprintf("model: node %d with negative delay", i))
		}
	}
	p := Path{nodes: make([]Node, len(nodes))}
	copy(p.nodes, nodes)
	p.fwd = copyTransits(nodes, forward)
	p.rev = copyTransits(nodes, reverse)
	if p.rev == nil {
		p.rev = p.fwd
	} else if p.fwd == nil {
		p.fwd = p.rev
	}
	return p
}

// copyTransits validates and deep-copies one direction's transit lists.
func copyTransits(nodes []Node, transits [][]Transit) [][]Transit {
	if transits == nil {
		return nil
	}
	if len(transits) != len(nodes)-1 {
		panic(fmt.Sprintf("model: %d transit hops for %d-node path", len(transits), len(nodes)))
	}
	out := make([][]Transit, len(transits))
	for i, ts := range transits {
		for _, t := range ts {
			if t.Rate <= 0 {
				panic(fmt.Sprintf("model: hop %d transit with non-positive rate", i))
			}
			if t.Delay < 0 {
				panic(fmt.Sprintf("model: hop %d transit with negative delay", i))
			}
		}
		out[i] = append([]Transit(nil), ts...)
	}
	return out
}

// PathFromAccess builds a Path from netem access configurations.
func PathFromAccess(cfgs []netem.AccessConfig) Path {
	nodes := make([]Node, len(cfgs))
	for i, c := range cfgs {
		nodes[i] = FromAccess(c)
	}
	return NewPath(nodes)
}

// Hops returns the number of transport hops (nodes − 1).
func (p Path) Hops() int { return len(p.nodes) - 1 }

// Node returns node i of the sequence (0 = source).
func (p Path) Node(i int) Node { return p.nodes[i] }

// hopTransits returns the transit links crossed travelling from
// adjacent node a to adjacent node b: the hop's forward route when
// a < b, its reverse route otherwise.
func (p Path) hopTransits(a, b int) []Transit {
	if a < b {
		if p.fwd == nil {
			return nil
		}
		return p.fwd[a]
	}
	if p.rev == nil {
		return nil
	}
	return p.rev[b]
}

// oneWay is the no-load latency for a frame of the given size between
// adjacent nodes a and b through the fabric: serialize up, propagate,
// one serialization and propagation per transit link, serialize down,
// propagate.
func (p Path) oneWay(a, b int, size units.DataSize) time.Duration {
	na, nb := p.nodes[a], p.nodes[b]
	d := na.UpRate.TransmissionTime(size) + na.Delay +
		nb.DownRate.TransmissionTime(size) + nb.Delay
	for _, t := range p.hopTransits(a, b) {
		d += t.Rate.TransmissionTime(size) + t.Delay
	}
	return d
}

// FeedbackRTT returns the no-load DATA→FEEDBACK round-trip of hop i
// (sender = node i, receiver = node i+1): a full cell forward, plus a
// control segment back. The receiver's forwarding signal itself is
// instantaneous in an unloaded network — a relay emits feedback the
// moment it begins its own onward transmission, which under no load is
// the moment of delivery.
func (p Path) FeedbackRTT(i int) time.Duration {
	p.checkHop(i)
	return p.oneWay(i, i+1, transport.DataWireSize) +
		p.oneWay(i+1, i, transport.CtrlWireSize)
}

// AckRTT returns the no-load DATA→ACK round-trip of hop i. It differs
// from FeedbackRTT only in name under no load, but is kept distinct for
// clarity in ablation reports.
func (p Path) AckRTT(i int) time.Duration {
	p.checkHop(i)
	return p.oneWay(i, i+1, transport.DataWireSize) +
		p.oneWay(i+1, i, transport.CtrlWireSize)
}

// CircuitRTT returns the no-load source→sink→source round-trip: a DATA
// cell all the way forward, a control segment all the way back.
func (p Path) CircuitRTT() time.Duration {
	var d time.Duration
	for i := 0; i < p.Hops(); i++ {
		d += p.oneWay(i, i+1, transport.DataWireSize)
		d += p.oneWay(i+1, i, transport.CtrlWireSize)
	}
	return d
}

// linkRate returns the forwarding rate of the data path from node i to
// node i+1: the minimum of i's uplink, any transit links on the
// forward route, and i+1's downlink.
func (p Path) linkRate(i int) units.DataRate {
	rate := p.nodes[i].UpRate
	if down := p.nodes[i+1].DownRate; down < rate {
		rate = down
	}
	for _, t := range p.hopTransits(i, i+1) {
		if t.Rate < rate {
			rate = t.Rate
		}
	}
	return rate
}

// BottleneckRate returns the slowest data-path link rate of the whole
// circuit.
func (p Path) BottleneckRate() units.DataRate {
	return p.downstreamRate(0)
}

// BottleneckHop returns the index of the hop whose link is the circuit
// bottleneck (ties resolve to the hop closest to the source).
func (p Path) BottleneckHop() int {
	best, rate := 0, p.linkRate(0)
	for i := 1; i < p.Hops(); i++ {
		if r := p.linkRate(i); r < rate {
			best, rate = i, r
		}
	}
	return best
}

// downstreamRate returns the slowest link rate on hops i..last — the
// steady-state rate at which hop i's feedback arrives under backpressure.
func (p Path) downstreamRate(i int) units.DataRate {
	p.checkHop(i)
	rate := p.linkRate(i)
	for j := i + 1; j < p.Hops(); j++ {
		if r := p.linkRate(j); r < rate {
			rate = r
		}
	}
	return rate
}

// cellsPerSecond converts a wire rate to DATA cells per second.
func cellsPerSecond(r units.DataRate) float64 {
	return r.BytesPerSecond() / float64(transport.DataWireSize)
}

// OptimalWindowCells returns the minimal window (in cells) at hop i that
// fully utilizes the circuit: feedback arrival rate × feedback RTT.
func (p Path) OptimalWindowCells(i int) float64 {
	return cellsPerSecond(p.downstreamRate(i)) * p.FeedbackRTT(i).Seconds()
}

// OptimalSourceWindowCells returns the optimal window of hop 0 — the
// quantity the paper's dashed line marks.
func (p Path) OptimalSourceWindowCells() float64 { return p.OptimalWindowCells(0) }

// OptimalSourceWindowBytes returns the source's optimal window in
// payload bytes (cells × cell size), the unit of Figure 1's y axis.
func (p Path) OptimalSourceWindowBytes() float64 {
	return p.OptimalSourceWindowCells() * float64(transport.DataWireSize-transport.HeaderSize)
}

// LowerBoundTTLB returns an analytic lower bound on the time-to-last-
// byte of a transfer occupying nCells cells: the pipeline fill (first
// cell's one-way latency to the sink) plus draining the remaining cells
// through the bottleneck. Ramp-up, queueing and control-plane effects
// only add to this, so every simulated TTLB must exceed it.
func (p Path) LowerBoundTTLB(nCells int) time.Duration {
	if nCells <= 0 {
		panic(fmt.Sprintf("model: LowerBoundTTLB(%d)", nCells))
	}
	var first time.Duration
	for i := 0; i < p.Hops(); i++ {
		first += p.oneWay(i, i+1, transport.DataWireSize)
	}
	drain := time.Duration(float64(nCells-1) / cellsPerSecond(p.BottleneckRate()) * float64(time.Second))
	return first + drain
}

func (p Path) checkHop(i int) {
	if i < 0 || i >= p.Hops() {
		panic(fmt.Sprintf("model: hop %d outside path with %d hops", i, p.Hops()))
	}
}

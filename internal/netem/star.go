package netem

import (
	"fmt"
	"sort"
	"time"

	"circuitstart/internal/sim"
	"circuitstart/internal/units"
)

// StarFabric is a hub-and-spoke topology: every node connects to a
// central switch that forwards frames to the destination's downlink.
// The switch fabric itself is non-blocking; all contention happens on
// access links. This is the paper's evaluation topology.
type StarFabric struct {
	clock *sim.Clock
	ports map[NodeID]*Port
	pool  *FramePool

	// unknownDst counts frames addressed to detached nodes.
	unknownDst uint64
}

var _ Fabric = (*StarFabric)(nil)

// NewStarFabric creates an empty star network on the given clock.
func NewStarFabric(clock *sim.Clock) *StarFabric {
	if clock == nil {
		panic("netem: NewStarFabric with nil clock")
	}
	return &StarFabric{clock: clock, ports: make(map[NodeID]*Port), pool: NewFramePool()}
}

// Clock returns the simulation clock the network runs on.
func (s *StarFabric) Clock() *sim.Clock { return s.clock }

// Attach connects a node to the star. The handler receives every frame
// addressed to id. Attach panics if id is already attached — silently
// replacing a node's handler would invalidate running experiments.
func (s *StarFabric) Attach(id NodeID, cfg AccessConfig, h Handler, rng *sim.RNG) *Port {
	if _, dup := s.ports[id]; dup {
		panic(fmt.Sprintf("netem: node %q attached twice", id))
	}
	if h == nil {
		panic(fmt.Sprintf("netem: node %q attached with nil handler", id))
	}
	p := newPort(id, s.clock, cfg, s, h, rng, s.pool)
	s.ports[id] = p
	return p
}

// route is the switch fabric: a frame arriving from any uplink is
// forwarded onto the destination's downlink with zero switching delay.
func (s *StarFabric) route(f *Frame) {
	dst, ok := s.ports[f.Dst]
	if !ok {
		s.unknownDst++
		s.pool.Put(f)
		return
	}
	dst.down.Send(f)
}

// Deliver makes the fabric the uplinks' ingress handler: every frame an
// uplink completes enters the switching stage.
func (s *StarFabric) Deliver(f *Frame) { s.route(f) }

// DeliverTrain routes a whole uplink train in one call. The frames
// enqueue on their downlinks back to back at the same instant, so a
// train arriving at the switch leaves it as a train — coalescing
// propagates through the fabric rather than dissolving at each hop.
func (s *StarFabric) DeliverTrain(fs []*Frame) {
	for _, f := range fs {
		s.route(f)
	}
}

// Port returns the port of an attached node, or nil.
func (s *StarFabric) Port(id NodeID) *Port { return s.ports[id] }

// Nodes returns the attached node IDs in sorted order (deterministic
// iteration for seeding and reporting).
func (s *StarFabric) Nodes() []NodeID {
	ids := make([]NodeID, 0, len(s.ports))
	for id := range s.ports {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Trunks returns nil: a star has no fabric-internal links.
func (s *StarFabric) Trunks() []*Link { return nil }

// FramePool returns the fabric's frame pool.
func (s *StarFabric) FramePool() *FramePool { return s.pool }

// UnknownDst returns how many frames were addressed to detached nodes.
func (s *StarFabric) UnknownDst() uint64 { return s.unknownDst }

// Unroutable returns 0: every attached pair is one switch apart.
func (s *StarFabric) Unroutable() uint64 { return 0 }

// PathRTT returns the analytic no-queueing round-trip time between two
// attached nodes for a frame of the given size in each direction: two
// serializations and two propagation hops each way. The optimal-window
// model builds on this.
func (s *StarFabric) PathRTT(a, b NodeID, size units.DataSize) time.Duration {
	return s.PathOneWay(a, b, size) + s.PathOneWay(b, a, size)
}

// PathOneWay returns the analytic no-queueing one-way latency from a to
// b for a frame of the given size.
func (s *StarFabric) PathOneWay(a, b NodeID, size units.DataSize) time.Duration {
	pa, pb := s.ports[a], s.ports[b]
	if pa == nil || pb == nil {
		panic(fmt.Sprintf("netem: PathOneWay between unattached nodes %q, %q", a, b))
	}
	return pa.cfg.UpRate.TransmissionTime(size) + pa.cfg.Delay +
		pb.cfg.DownRate.TransmissionTime(size) + pb.cfg.Delay
}

// PathTransits returns nil: on a star the hop is the two access links.
func (s *StarFabric) PathTransits(a, b NodeID) []*Link {
	if s.ports[a] == nil || s.ports[b] == nil {
		panic(fmt.Sprintf("netem: PathTransits between unattached nodes %q, %q", a, b))
	}
	return nil
}

// BottleneckRate returns the minimum forwarding rate along the node
// sequence path (uplink of each sender, downlink of each receiver).
func (s *StarFabric) BottleneckRate(path []NodeID) units.DataRate {
	if len(path) < 2 {
		panic("netem: BottleneckRate needs at least two nodes")
	}
	min := units.DataRate(1<<63 - 1)
	for i := 0; i < len(path)-1; i++ {
		src, dst := s.ports[path[i]], s.ports[path[i+1]]
		if src == nil || dst == nil {
			panic(fmt.Sprintf("netem: BottleneckRate over unattached hop %q→%q", path[i], path[i+1]))
		}
		if src.cfg.UpRate < min {
			min = src.cfg.UpRate
		}
		if dst.cfg.DownRate < min {
			min = dst.cfg.DownRate
		}
	}
	return min
}

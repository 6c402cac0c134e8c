package transport

import (
	"time"

	"circuitstart/internal/cell"
	"circuitstart/internal/netem"
	"circuitstart/internal/pool"
)

// SegmentPool recycles boxed *Segment wrappers. The overlay attaches
// segments to netem frames as `any` payloads; boxing a Segment value
// allocates 136 bytes per hop transmission, which profiling showed was
// >80% of a transfer's steady-state allocations. Instead, senders draw
// a wrapper here, and the frame store's put hook returns it the moment
// the carrying frame dies (delivery, tail drop or random loss) — the one
// place every frame death is visible, so each wrapper is recycled
// exactly once.
//
// The pool also stores the buffers a hop sender grows (see
// Sender.UseSegmentPool): its retransmission ring, its local queue and
// its exit-measurement spacings, each a size-classed pool.Buffers. A
// sender takes a larger buffer from the store as it grows and hands the
// smaller one back, and Close returns what it holds — emptied: the cells
// a buffer pointed to are never recycled through it (see DESIGN.md,
// "Teardown ownership").
//
// A SegmentPool holds its stores by pointer. Relays and endpoints keep
// a copy and their senders point at it, so the zero SegmentPool, whose
// nil stores allocate plainly, serves unpooled construction paths
// (direct relay tests) unchanged.
type SegmentPool struct {
	segments *pool.Objects[Segment]
	sent     *pool.Buffers[sentCell]
	queues   *pool.Buffers[*cell.Cell]
	spacings *pool.Buffers[time.Duration]
}

// unpooled is the pool of senders none was wired into.
var unpooled SegmentPool

// NewSegmentPool returns a pool with empty stores.
func NewSegmentPool() *SegmentPool {
	return &SegmentPool{
		segments: new(pool.Objects[Segment]),
		sent:     new(pool.Buffers[sentCell]),
		queues:   new(pool.Buffers[*cell.Cell]),
		spacings: new(pool.Buffers[time.Duration]),
	}
}

// Get returns a zeroed segment for the caller to fill.
func (p *SegmentPool) Get() *Segment { return p.segments.Get() }

// Put recycles a dead wrapper, zeroed so the pool pins no cell.
func (p *SegmentPool) Put(s *Segment) { p.segments.Put(s) }

// Send transmits a hop segment from port as a pooled wrapper, giving
// control segments (ACK, FEEDBACK, PROBE) link priority so congestion
// feedback is not delayed by the data queues it describes. Data frames
// carry their circuit ID so installed circuit schedulers can tell flows
// apart.
func (p *SegmentPool) Send(port *netem.Port, dst netem.NodeID, seg Segment) bool {
	s := p.Get()
	*s = seg
	if seg.Kind == KindData {
		return port.SendCirc(dst, seg.WireSize(), s, uint32(seg.Circ))
	}
	return port.SendPriority(dst, seg.WireSize(), s)
}

// Stores names the pool's stores for the arena that resets and balances
// them: the wrappers, which frame deaths empty, and the sender buffers,
// which open senders hold.
func (p *SegmentPool) Stores() map[string]pool.Store {
	return map[string]pool.Store{
		"segments": p.segments, "sender rings": p.sent,
		"sender queues": p.queues, "sender spacings": p.spacings,
	}
}

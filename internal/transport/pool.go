package transport

import (
	"time"

	"circuitstart/internal/bufpool"
	"circuitstart/internal/cell"
)

// SegmentPool recycles boxed *Segment wrappers. The overlay attaches
// segments to netem frames as `any` payloads; boxing a Segment value
// allocates 136 bytes per hop transmission, which profiling showed was
// >80% of a transfer's steady-state allocations. Instead, senders draw
// a wrapper here, and the fabric's FramePool returns it through its
// OnReclaim hook the moment the carrying frame dies (delivery, tail
// drop or random loss) — the one place every frame death is visible,
// so each wrapper is recycled exactly once.
//
// Like the other pools in this repository it is a plain free list: a
// simulation is single-threaded on its clock, so no locking, and reuse
// order is deterministic. A nil *SegmentPool is valid and degrades to
// plain allocation, keeping unpooled construction paths (direct relay
// tests) working unchanged.
// The pool remembers every segment it ever allocated so Reset can
// reclaim wrappers stranded in a dead trial's frames along with the
// free ones.
//
// The pool also stores the buffers a hop sender grows (see
// Sender.UseSegmentPool): its retransmission ring, its local queue and
// its exit-measurement spacings, each a size-classed bufpool.Store. A
// sender takes a larger buffer from the store as it grows and hands the
// smaller one back, and Close returns what it holds — emptied: the cells
// a buffer pointed to are never recycled through it (see DESIGN.md,
// "Teardown ownership").
type SegmentPool struct {
	free []*Segment
	all  []*Segment

	sent     bufpool.Store[sentCell]
	queues   bufpool.Store[*cell.Cell]
	spacings bufpool.Store[time.Duration]
}

// NewSegmentPool returns an empty pool.
func NewSegmentPool() *SegmentPool { return &SegmentPool{} }

// Get returns a zeroed segment for the caller to fill.
func (p *SegmentPool) Get() *Segment {
	if p == nil {
		return &Segment{}
	}
	if n := len(p.free); n > 0 {
		s := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return s
	}
	s := &Segment{}
	p.all = append(p.all, s)
	return s
}

// Put recycles a dead wrapper. The segment is zeroed so the pool pins
// neither cells nor stale header fields.
func (p *SegmentPool) Put(s *Segment) {
	if p == nil || s == nil {
		return
	}
	*s = Segment{}
	p.free = append(p.free, s)
}

// Reset reclaims every wrapper and sender buffer the pool ever
// allocated — free or not — zeroing each and rebuilding the free lists
// in allocation order. Only call it at a trial boundary, after the
// frames carrying the wrappers and the senders holding the buffers have
// been discarded; resetting under live traffic aliases memory.
func (p *SegmentPool) Reset() {
	if p == nil {
		return
	}
	p.free = p.free[:0]
	for _, s := range p.all {
		*s = Segment{}
		p.free = append(p.free, s)
	}
	p.sent.Reset()
	p.queues.Reset()
	p.spacings.Reset()
}

// The sender's buffer stores; nil for a nil pool, which allocates
// plainly.

func (p *SegmentPool) sentStore() *bufpool.Store[sentCell] {
	if p == nil {
		return nil
	}
	return &p.sent
}

func (p *SegmentPool) queueStore() *bufpool.Store[*cell.Cell] {
	if p == nil {
		return nil
	}
	return &p.queues
}

func (p *SegmentPool) spacingStore() *bufpool.Store[time.Duration] {
	if p == nil {
		return nil
	}
	return &p.spacings
}

// Package netem emulates the network layer the overlay runs on:
// point-to-point links with finite bandwidth, propagation delay and
// drop-tail queues, wired into a star topology through a switch.
//
// This replaces the ns-3 substrate used by the paper's nstor framework.
// The fidelity target is network-level behaviour (the only thing the
// paper's results depend on): serialization delay, queueing delay,
// propagation delay, and tail drops. There is no layer-2/3 header
// modelling — the overlay's fixed-size cells are the unit of transfer
// and their wire size already accounts for framing overhead.
package netem

import (
	"circuitstart/internal/bufpool"
	"circuitstart/internal/sim"
	"circuitstart/internal/units"
)

// NodeID names an attached node. IDs are plain strings so traces and
// test failures read naturally ("relay-2", "client-17").
type NodeID string

// Frame is one unit of data in flight on a link. Size is the wire size
// used for serialization-time and queue-occupancy accounting; Payload is
// opaque to the network layer (the overlay puts cells here).
//
// Ownership: frames sent through a Fabric belong to the network layer.
// The fabric draws them from its FramePool at Port.Send and recycles
// them as soon as they die — on tail drop, on random loss, or when the
// destination handler's Deliver returns. A Handler must therefore not
// retain a *Frame (or resend it) past the Deliver call; it may retain
// the Payload, which is cleared from the frame on recycle.
type Frame struct {
	Src, Dst NodeID
	Size     units.DataSize
	Payload  any
	// Priority frames (transport control segments: ACK, FEEDBACK,
	// PROBE) are serialized ahead of waiting data frames. Without this,
	// feedback from a saturated relay queues behind the very cells it
	// reports on, and every delay-based estimator upstream reads the
	// reverse-path queue as forward-path congestion.
	Priority bool
	// Circ tags data frames with the overlay circuit they belong to
	// (0 = untagged). The network layer never interprets it beyond
	// handing it to an installed SchedQueue, which uses it to service
	// circuits instead of a single FIFO.
	Circ uint32

	enqueuedAt sim.Time // set by Link for queue-delay accounting
	// trainLen is set by Link on the first surviving member of a train
	// entering the propagation FIFO: how many members survived with it,
	// and deliverKey the position reserved for their delivery event.
	trainLen   int
	deliverKey sim.Key
}

// FramePool recycles Frame objects so the per-frame hot path of a fabric
// allocates nothing in steady state. It is a plain free list: each
// simulation is single-threaded on its own clock, so no locking is
// needed, and reuse order is deterministic.
//
// The free list lives in an indirected backing store so a pool can
// Adopt another pool's store: a trial arena owns one long-lived store
// and every per-trial fabric redirects its own pool there, letting the
// frame working set survive fabric teardown. The store remembers every
// frame it ever allocated, so Reset can reclaim frames stranded in
// discarded links (in flight when a trial stopped) along with the free
// ones. The same goes for the ring buffers of the links wired to the
// pool: a growing ring takes its larger buffer from the store (a
// bufpool.Store) and hands the smaller one back, and Reset reclaims the
// buffers a discarded trial's links still hold.
//
// A nil *FramePool is valid and degrades to plain allocation (Get) and
// dropping on the floor (Put) — standalone Links built by tests keep the
// old semantics without wiring a pool.
type FramePool struct {
	s *frameStore
}

type frameStore struct {
	free    []*Frame
	all     []*Frame
	reclaim func(payload any)
	rings   bufpool.Store[*Frame]
}

// NewFramePool returns an empty pool.
func NewFramePool() *FramePool { return &FramePool{s: &frameStore{}} }

// Adopt redirects this pool to src's backing store: subsequent Get/Put
// calls — including through Links that captured this *FramePool earlier
// — draw from and recycle into src's free list. Call it before traffic
// flows; frames already drawn from the old store are simply never
// reused.
func (p *FramePool) Adopt(src *FramePool) {
	if p != nil && src != nil {
		p.s = src.s
	}
}

// OnReclaim installs a hook invoked with a dying frame's non-nil
// Payload just before the pool drops the reference. The overlay uses it
// to recycle the boxed segment wrappers it attaches as payloads: the
// network layer is the one place that reliably sees every frame death
// (delivery, tail drop, random loss), so it is the one place the
// wrapper's life can end exactly once.
func (p *FramePool) OnReclaim(fn func(payload any)) {
	if p != nil {
		p.s.reclaim = fn
	}
}

// Reset reclaims every frame and ring buffer the pool's store ever
// allocated — free or not — rebuilding the free lists in allocation
// order. It exists for trial boundaries: frames still sitting in a dead
// trial's links, and the rings holding them, come back without waiting
// for delivery. Payload references are dropped WITHOUT invoking the
// OnReclaim hook; a caller resetting the frame pool is expected to reset
// the payload pools wholesale too. Calling it while any live link still
// holds frames aliases memory — only reset between trials, after the
// owning fabric is discarded.
func (p *FramePool) Reset() {
	if p == nil {
		return
	}
	s := p.s
	s.free = s.free[:0]
	for _, f := range s.all {
		f.Payload = nil
		s.free = append(s.free, f)
	}
	s.rings.Reset()
}

// AllLen returns how many frames the pool's store ever allocated.
// Together with FreeLen it lets leak tests assert pool balance: after a
// trial fully drains (or after Reset), every allocated frame must be
// back on the free list.
func (p *FramePool) AllLen() int {
	if p == nil {
		return 0
	}
	return len(p.s.all)
}

// FreeLen returns how many frames are currently on the free list.
func (p *FramePool) FreeLen() int {
	if p == nil {
		return 0
	}
	return len(p.s.free)
}

// Get returns a frame for the caller to fill. Every exported field must
// be set by the caller; recycled frames carry no payload.
func (p *FramePool) Get() *Frame {
	if p == nil {
		return &Frame{}
	}
	s := p.s
	if n := len(s.free); n > 0 {
		f := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return f
	}
	f := &Frame{}
	s.all = append(s.all, f)
	return f
}

// Put recycles a dead frame. The payload reference is dropped so the
// pool does not pin overlay objects; everything else is overwritten by
// the next Get's caller.
func (p *FramePool) Put(f *Frame) {
	if p == nil || f == nil {
		return
	}
	s := p.s
	if s.reclaim != nil && f.Payload != nil {
		s.reclaim(f.Payload)
	}
	f.Payload = nil
	s.free = append(s.free, f)
}

// rings returns the store the pool's links grow their ring buffers in;
// nil for a nil pool, which allocates plainly.
func (p *FramePool) rings() *bufpool.Store[*Frame] {
	if p == nil {
		return nil
	}
	return &p.s.rings
}

// SchedQueue is a pluggable scheduler for a link's data frames. When
// installed via Link.SetScheduler it replaces the built-in FIFO ring
// for non-priority frames: Send pushes accepted frames, the serializer
// pops the scheduler's pick. Priority (control) frames bypass it and
// keep strict precedence.
//
// Push may refuse a frame (a bandwidth policer, for example); the link
// then counts a SchedDrop and recycles the frame exactly like a tail
// drop. Pop must return frames until Len reaches zero — admission
// decisions belong in Push, so the serializer stays work-conserving.
// Implementations must be deterministic and, to preserve the pooled
// hot path, allocation-free in steady state (see internal/sched).
type SchedQueue interface {
	Push(f *Frame) bool
	Pop() *Frame
	Len() int
}

// CircPeeker is an optional SchedQueue extension: PeekCirc reports the
// circuit of the frame the next Pop would return, without popping it.
// A trained link consults it during train formation so a train never
// spans a scheduler preemption point — the EWMA scheduler implements
// it (its next pick is the cheapest circuit, known from the heap root),
// while the FIFO scheduler deliberately does not (FIFO order has no
// preemption, so trains coalesce across circuits there).
type CircPeeker interface {
	PeekCirc() (circ uint32, ok bool)
}

// Handler consumes frames delivered by the network layer.
type Handler interface {
	// Deliver hands a frame that has fully arrived to the receiver. The
	// frame is only valid for the duration of the call: the network
	// recycles it when Deliver returns (see Frame ownership).
	Deliver(f *Frame)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(f *Frame)

// Deliver implements Handler.
func (h HandlerFunc) Deliver(f *Frame) { h(f) }

// TrainHandler is an optional Handler extension for batch delivery: a
// trained link hands a whole train's surviving frames in one call
// instead of one Deliver each, letting the receiver amortize per-batch
// work (relays hoist the circuit-table lookup across a train's
// same-circuit run). Frame ownership is unchanged — every frame in the
// batch is only valid for the duration of the call. Handlers that do
// not implement it receive per-frame Deliver calls in train order, so
// implementing TrainHandler must be behaviorally equivalent to that
// loop.
type TrainHandler interface {
	Handler
	DeliverTrain(fs []*Frame)
}

// frameRing is a growable FIFO ring buffer of frames. Capacity is a
// power of two so the wrap is a mask; growth is amortized, so a link
// that has reached its working set never allocates per frame again.
// Buffers come from the link's frame pool, so across trials the rings
// of fresh links regrow into the buffers the previous trial's links
// grew.
type frameRing struct {
	buf  []*Frame
	head int
	n    int
}

func (r *frameRing) len() int { return r.n }

func (r *frameRing) push(f *Frame, p *FramePool) {
	if r.n == len(r.buf) {
		r.grow(p)
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = f
	r.n++
}

// peek returns the oldest frame without removing it; the ring must not
// be empty.
func (r *frameRing) peek() *Frame { return r.buf[r.head] }

func (r *frameRing) pop() *Frame {
	if r.n == 0 {
		return nil
	}
	f := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return f
}

func (r *frameRing) grow(p *FramePool) {
	st := p.rings()
	buf := st.Get(2 * len(r.buf))
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	st.Put(r.buf)
	r.buf = buf
	r.head = 0
}

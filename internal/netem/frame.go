// Package netem emulates the network layer the overlay runs on:
// point-to-point links with finite bandwidth, propagation delay and
// drop-tail queues, wired through a graph of switches. The paper's star
// topology is the one-switch graph.
//
// This replaces the ns-3 substrate used by the paper's nstor framework.
// The fidelity target is network-level behaviour (the only thing the
// paper's results depend on): serialization delay, queueing delay,
// propagation delay, and tail drops. There is no layer-2/3 header
// modelling — the overlay's fixed-size cells are the unit of transfer
// and their wire size already accounts for framing overhead.
package netem

import (
	"circuitstart/internal/pool"
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
	trainLen int32
	// dstSw and dstPort are the destination as a GraphFabric resolves
	// it at the frame's first switch: its home switch index plus one
	// (0 = unresolved) and, when it is attached to that fabric, its
	// port. Later switches route on dstSw alone. (dstSw shares a word
	// with trainLen, so a frame stays in its 112-byte size class.)
	dstSw      int32
	deliverKey sim.Key
	dstPort    *Port
}

// FramePool is where a fabric's frames and its links' ring buffers come
// from, so the per-frame hot path allocates nothing in steady state: a
// frame store and a ring-buffer store (see package pool for the
// contract). A growing ring takes its larger buffer from Rings and hands
// the smaller one back.
//
// The pool holds its stores by pointer, so assigning one pool to another
// redirects it: a trial arena owns one long-lived pair of stores, and
// every per-trial fabric — whose links captured its pool when the fabric
// was built, before the network existed — is pointed there, letting the
// working set survive fabric teardown. The zero FramePool's nil stores
// allocate plainly and drop what they are handed back; links UsePool
// never wired recycle through it.
type FramePool struct {
	Objects *pool.Objects[Frame]
	Rings   *pool.Buffers[*Frame]
}

// unpooled is the pool of standalone links.
var unpooled FramePool

// NewFramePool returns a pool with empty stores.
func NewFramePool() *FramePool {
	return &FramePool{Objects: new(pool.Objects[Frame]), Rings: new(pool.Buffers[*Frame])}
}

// Get returns a zeroed frame for the caller to fill.
func (p *FramePool) Get() *Frame { return p.Objects.Get() }

// Put recycles a dead frame: the frame store's put hook sees it whole,
// then it is zeroed. Test-only: arena's TestArenaBalanceCatchesLeaks
// plants a double put with it; the package itself recycles frames.
func (p *FramePool) Put(f *Frame) { p.Objects.Put(f) }

// SchedQueue is a pluggable scheduler for a link's data frames. When
// installed via Link.SetScheduler it replaces the built-in FIFO ring
// for non-priority frames: Send pushes accepted frames, the serializer
// pops the scheduler's pick. Priority (control) frames bypass it and
// keep strict precedence.
//
// Push may refuse a frame; the link then counts a SchedDrop and
// recycles the frame exactly like a tail drop. Pop must return frames
// until Len reaches zero — admission decisions belong in Push, so the
// serializer stays work-conserving. PeekCirc reports the circuit of the
// frame the next Pop would return, without popping it: a trained link
// ends a train there, so a train never spans a scheduler preemption
// point. Implementations must be deterministic and, to preserve the
// pooled hot path, allocation-free in steady state (see internal/sched).
type SchedQueue interface {
	Push(f *Frame) bool
	Pop() *Frame
	Len() int
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

// trainHandler is an optional Handler extension for batch delivery: a
// trained link hands a whole train's surviving frames in one call
// instead of one Deliver each, letting the receiver amortize per-batch
// work (relays hoist the circuit-table lookup across a train's
// same-circuit run). Frame ownership is unchanged — every frame in the
// batch is only valid for the duration of the call. Handlers that do
// not implement it receive per-frame Deliver calls in train order, so
// implementing trainHandler must be behaviorally equivalent to that
// loop.
type trainHandler interface {
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
	st := p.Rings
	buf := st.Get(2 * len(r.buf))
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	st.Put(r.buf)
	r.buf = buf
	r.head = 0
}

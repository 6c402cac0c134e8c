// Package sched provides the pluggable circuit scheduler a relay
// uplink or backbone trunk can install via netem.Link.SetScheduler: a
// Tor-style EWMA quiet-circuit priority scheduler. A link with no
// scheduler keeps its built-in FIFO ring.
//
// The scheduler is deterministic — ties break on a monotonic
// activation sequence, never on map order — and allocation-free in
// steady state, so it fits the pooled-event hot path: rings and heaps
// grow to their working set once, circuit nodes come from a free list,
// and Push/Pop never allocate afterwards.
package sched

import (
	"math"
	"time"

	"circuitstart/internal/netem"
	"circuitstart/internal/sim"
)

// frameRing is a growable power-of-two FIFO of frames (the same shape
// as netem's internal ring, duplicated here because that one is
// unexported and this package sits beside netem, not inside it).
type frameRing struct {
	buf  []*netem.Frame
	head int
	n    int
}

func (r *frameRing) len() int { return r.n }

func (r *frameRing) push(f *netem.Frame) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = f
	r.n++
}

func (r *frameRing) pop() *netem.Frame {
	if r.n == 0 {
		return nil
	}
	f := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return f
}

func (r *frameRing) grow() {
	size := len(r.buf) * 2
	if size == 0 {
		size = 8
	}
	buf := make([]*netem.Frame, size)
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf = buf
	r.head = 0
}

// defaultHalfLife is the EWMA decay half-life when none is given —
// Tor's CircuitPriorityHalflife default of 30 s.
const defaultHalfLife = 30 * time.Second

// renormThreshold bounds the shared EWMA scale factor. Costs are
// stored at epoch scale and increments grow as 2^(Δt/halfLife), so
// after enough simulated time the scale overflows float64; dividing
// every cost by the current scale and restarting the epoch preserves
// all orderings exactly (uniform positive scaling).
const renormThreshold = 1e100

// circNode is one circuit's state in the EWMA scheduler: its queued
// frames, its decayed cost, and its position in the active heap
// (heapIdx < 0 when idle). seq is the creation sequence, the
// deterministic tie-break for equal costs.
type circNode struct {
	circ    uint32
	cost    float64
	seq     uint64
	heapIdx int
	ring    frameRing
	next    *circNode // free list
}

// EWMA is a Tor-style quiet-circuit priority scheduler: each circuit
// accumulates an exponentially-decayed cost for the bytes it has
// recently sent, and the serializer always picks the queued circuit
// with the lowest cost. Interactive circuits, mostly quiet, keep a low
// cost and jump ahead of bulk circuits at every transmission slot —
// the "EWMA" scheduler of Tang & Goldberg that Tor ships as
// CircuitPriorityHalflife.
//
// Implementation: costs are stored at a fixed epoch scale and
// increments are multiplied by 2^((now−epoch)/halfLife), which makes
// the uniform decay implicit (old costs shrink relative to new
// increments) and keeps Pop O(log n) without touching idle circuits.
type EWMA struct {
	clock    *sim.Clock
	halfLife time.Duration
	epoch    sim.Time

	nodes   map[uint32]*circNode
	heap    []*circNode // active (ring.len > 0) circuits, min-cost first
	free    *circNode
	nextSeq uint64
	length  int
}

// NewEWMA returns an empty EWMA scheduler on the given clock.
// halfLife ≤ 0 selects defaultHalfLife.
func NewEWMA(clock *sim.Clock, halfLife time.Duration) *EWMA {
	if clock == nil {
		panic("sched: NewEWMA with nil clock")
	}
	if halfLife <= 0 {
		halfLife = defaultHalfLife
	}
	return &EWMA{
		clock:    clock,
		halfLife: halfLife,
		epoch:    clock.Now(),
		nodes:    make(map[uint32]*circNode),
	}
}

// scale returns the cost multiplier for an increment at the current
// time, renormalizing the epoch when it would grow unboundedly.
func (q *EWMA) scale() float64 {
	now := q.clock.Now()
	s := math.Exp2(float64(now.Sub(q.epoch)) / float64(q.halfLife))
	if s > renormThreshold {
		inv := 1 / s
		for _, n := range q.nodes {
			n.cost *= inv
		}
		q.epoch = now
		return 1
	}
	return s
}

// node returns the circuit's node, creating (or reviving from the free
// list) one on first sight.
func (q *EWMA) node(circ uint32) *circNode {
	if n := q.nodes[circ]; n != nil {
		return n
	}
	n := q.free
	if n != nil {
		q.free = n.next
		n.next = nil
	} else {
		n = &circNode{}
	}
	n.circ = circ
	n.cost = 0
	n.heapIdx = -1
	q.nextSeq++
	n.seq = q.nextSeq
	q.nodes[circ] = n
	return n
}

// Push accepts every frame, activating its circuit if it was idle.
func (q *EWMA) Push(f *netem.Frame) bool {
	n := q.node(f.Circ)
	n.ring.push(f)
	q.length++
	if n.heapIdx < 0 {
		q.heapPush(n)
	}
	return true
}

// Pop returns the next frame of the lowest-cost queued circuit and
// charges that circuit the frame's bytes at the current decay scale.
func (q *EWMA) Pop() *netem.Frame {
	if len(q.heap) == 0 {
		return nil
	}
	n := q.heap[0]
	f := n.ring.pop()
	q.length--
	// float64(…) rounds the product unfused (TestNoFusedMultiplyAdd).
	n.cost += float64(q.scale() * float64(f.Size))
	if n.ring.len() == 0 {
		q.heapRemoveTop()
	} else {
		q.siftDown(0)
	}
	return f
}

// Len returns the number of queued frames across all circuits.
func (q *EWMA) Len() int { return q.length }

// PeekCirc reports the circuit the next Pop would serve — the heap
// root's circuit — without popping or charging cost. Trained links use
// it to end a train exactly where EWMA would preempt, so batching
// never changes which circuit gets the wire next.
func (q *EWMA) PeekCirc() (uint32, bool) {
	if len(q.heap) == 0 {
		return 0, false
	}
	return q.heap[0].circ, true
}

// Forget releases an idle circuit's node to the free list. Circuits
// with queued frames are left alone (their frames still must drain).
func (q *EWMA) Forget(circ uint32) {
	n := q.nodes[circ]
	if n == nil || n.ring.len() > 0 {
		return
	}
	delete(q.nodes, circ)
	n.next = q.free
	q.free = n
}

// less orders the heap: lower cost first, creation order on ties.
func less(a, b *circNode) bool {
	if a.cost != b.cost {
		return a.cost < b.cost
	}
	return a.seq < b.seq
}

func (q *EWMA) heapPush(n *circNode) {
	n.heapIdx = len(q.heap)
	q.heap = append(q.heap, n)
	q.siftUp(n.heapIdx)
}

func (q *EWMA) heapRemoveTop() {
	top := q.heap[0]
	top.heapIdx = -1
	last := len(q.heap) - 1
	if last > 0 {
		q.heap[0] = q.heap[last]
		q.heap[0].heapIdx = 0
	}
	q.heap[last] = nil
	q.heap = q.heap[:last]
	if last > 0 {
		q.siftDown(0)
	}
}

func (q *EWMA) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !less(q.heap[i], q.heap[parent]) {
			return
		}
		q.swap(i, parent)
		i = parent
	}
}

func (q *EWMA) siftDown(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(q.heap) && less(q.heap[l], q.heap[min]) {
			min = l
		}
		if r < len(q.heap) && less(q.heap[r], q.heap[min]) {
			min = r
		}
		if min == i {
			return
		}
		q.swap(i, min)
		i = min
	}
}

func (q *EWMA) swap(i, j int) {
	q.heap[i], q.heap[j] = q.heap[j], q.heap[i]
	q.heap[i].heapIdx = i
	q.heap[j].heapIdx = j
}

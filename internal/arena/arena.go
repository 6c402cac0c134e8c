// Package arena provides the trial-scoped allocation arena the parallel
// runner and the benchmarks reuse across trials.
//
// A simulation trial allocates the same shapes every time: clock events,
// cells, boxed segment wrappers, frames and link ring buffers, each
// hop sender's buffers (retransmission ring, queue, exit-measurement
// spacings), circuits, churn-ledger entries. Tearing a trial down object
// by object and reallocating everything for the next one is where the
// old hot path spent most of its allocations. An Arena instead owns the
// recyclable substrate — one clock whose event free list survives
// trials, the cell, segment and frame stores (the segment pool also
// stores the sender buffers, and the frame pool the link rings), and
// named object slabs — and makes whole-trial teardown a pointer reset:
// ResetTrial rewinds every cursor without releasing memory, so trial
// N+1 replays into the working set trial N built.
//
// Lifetime: an arena serves one goroutine at a time (a clock is
// single-threaded by design), but it is not tied to a goroutine or to a
// run. The scenario runner keeps its arenas on a bounded process-wide
// idle list between runs, until they sit through a garbage collection
// untaken, so trial N+1 may belong to a later sweep point or daemon job
// than trial N; an arena that served a failed trial is dropped, never
// reused. The determinism contract is unaffected because
// recycled memory is observationally neutral — every output is a pure
// function of seeds and virtual time, never of object identity or stale
// bytes.
package arena

import (
	"circuitstart/internal/cell"
	"circuitstart/internal/netem"
	"circuitstart/internal/sim"
	"circuitstart/internal/transport"
)

// Arena is the reusable substrate for a sequence of trials. The fields
// are the cross-layer pools every network needs; Slot extends it with
// caller-defined slabs (core's circuit slab, scenario's churn ledger)
// without this package importing those layers.
type Arena struct {
	// Clock is the shared simulation clock. ResetTrial rewinds it to
	// the epoch, recycling pending events through its free list.
	Clock *sim.Clock
	// Cells recycles overlay cells between the endpoints of every
	// circuit built in the arena.
	Cells *cell.Pool
	// Segments recycles the boxed segment wrappers frames carry, and
	// stores the buffers every hop sender grows.
	Segments *transport.SegmentPool
	// Frames is the backing store every per-trial fabric's frame pool
	// adopts, so the frame working set survives fabric teardown.
	Frames *netem.FramePool

	slots map[string]any
}

// New returns an arena with fresh pools and an empty slot table.
func New() *Arena {
	return &Arena{
		Clock:    sim.NewClock(),
		Cells:    cell.NewPool(),
		Segments: transport.NewSegmentPool(),
		Frames:   netem.NewFramePool(),
		slots:    make(map[string]any),
	}
}

// Slot returns the named auxiliary pool, creating it with mk on first
// use. Layers above use it to hang their own slabs off the arena (keyed
// by package-unique strings) so the arena stays ignorant of their
// types. A slot value implementing Resetter is rewound by ResetTrial.
func (a *Arena) Slot(key string, mk func() any) any {
	v, ok := a.slots[key]
	if !ok {
		v = mk()
		a.slots[key] = v
	}
	return v
}

// Resetter is implemented by slot values that need rewinding at trial
// boundaries (Slab implements it).
type Resetter interface{ Reset() }

// ResetTrial ends one trial and prepares the next: the clock returns to
// the epoch (pending events recycled, armed timers inert), the frame,
// cell and segment pools reclaim everything they ever allocated —
// including objects stranded mid-flight in the dying trial's links and
// the buffers its links and senders still hold — and every resettable
// slot rewinds its cursor. No memory is released;
// that retention is the arena's entire point. Call it only between
// trials, after every result has been read out of the dying trial's
// objects: pool and slab memory is reused by the next one.
func (a *Arena) ResetTrial() {
	a.Clock.Reset()
	a.Frames.Reset()
	a.Cells.Reset()
	a.Segments.Reset()
	for _, v := range a.slots {
		if r, ok := v.(Resetter); ok {
			r.Reset()
		}
	}
}

// Slab is a chunked bump allocator for trial-lifetime objects. New
// returns a zeroed *T from the current cursor position; Reset zeroes
// what was issued and rewinds the cursor so the next trial reuses the
// same memory. Chunking keeps issued pointers stable while the slab
// grows. Objects live until the Reset after the caller is done reading
// them — never hold a slab pointer across a trial boundary.
type Slab[T any] struct {
	chunks [][]T
	n      int
}

const slabChunk = 64

// New returns a zeroed object from the slab: a fresh chunk is zeroed by
// allocation, a reused one by the Reset before.
func (s *Slab[T]) New() *T {
	ci, off := s.n/slabChunk, s.n%slabChunk
	if ci == len(s.chunks) {
		s.chunks = append(s.chunks, make([]T, slabChunk))
	}
	s.n++
	return &s.chunks[ci][off]
}

// Len returns the number of live objects.
func (s *Slab[T]) Len() int { return s.n }

// Reset zeroes the issued objects and rewinds the cursor; memory is
// retained for reuse. Zeroing at Reset rather than in New keeps a slab
// on an idle arena from pinning the object graph of the last trial it
// served (a circuit points into its whole network).
func (s *Slab[T]) Reset() {
	for i := 0; s.n > 0; i++ {
		k := min(s.n, slabChunk)
		clear(s.chunks[i][:k])
		s.n -= k
	}
}

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
// trials, and every store of package pool a trial draws from: the cell,
// frame and segment stores, the link-ring and sender-buffer stores, and
// named object stores for layers above (Slot) — and makes whole-trial
// teardown a pointer reset: ResetTrial rewinds every store without
// releasing memory, so trial N+1 replays into the working set trial N
// built. Balance is the one leak check every pool test shares
// (TestArenaBalanceCatchesLeaks, and the trial-level checks in core and
// scenario: TestShardedFrameLeakBalance, TestFaultedTrialPoolBalance,
// TestArenaReuseIndependence).
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
	"fmt"

	"circuitstart/internal/cell"
	"circuitstart/internal/netem"
	"circuitstart/internal/pool"
	"circuitstart/internal/sim"
	"circuitstart/internal/transport"
)

// Arena is the reusable substrate for a sequence of trials. The fields
// are the cross-layer pools every network needs; Slot extends it with
// caller-defined object stores (core's circuits, scenario's download
// ledgers) without this package importing those layers.
type Arena struct {
	// Clock is the shared simulation clock. ResetTrial rewinds it to
	// the epoch, recycling pending events through its free list.
	Clock *sim.Clock
	// Cells recycles overlay cells between the endpoints of every
	// circuit built in the arena.
	Cells *pool.Objects[cell.Cell]
	// Segments recycles the boxed segment wrappers frames carry, and
	// stores the buffers every hop sender grows.
	Segments *transport.SegmentPool
	// Frames holds the stores every per-trial fabric's frame pool
	// adopts, so the frame and link-ring working set survives fabric
	// teardown. A dying frame hands the segment it carries back to
	// Segments.
	Frames *netem.FramePool

	// stores names every store the arena owns, slots included.
	stores map[string]pool.Store
}

// New returns an arena with fresh stores.
func New() *Arena {
	a := &Arena{
		Clock:    sim.NewClock(),
		Cells:    new(pool.Objects[cell.Cell]),
		Segments: transport.NewSegmentPool(),
		Frames:   netem.NewFramePool(),
	}
	// Recycle boxed segment wrappers the instant their carrying frame
	// dies (delivered, tail-dropped, policed or randomly lost): the
	// frame store's put hook is the one place every death is visible.
	a.Frames.Objects.OnPut = func(f *netem.Frame) {
		if s, ok := f.Payload.(*transport.Segment); ok {
			a.Segments.Put(s)
		}
	}
	a.stores = a.Segments.Stores()
	a.stores["cells"] = a.Cells
	a.stores["frames"] = a.Frames.Objects
	a.stores["link rings"] = a.Frames.Rings
	return a
}

// Slot returns a's object store named key, creating it on first use.
// Layers above hang their trial-lifetime objects off the arena this way
// (keyed by package-unique strings) so the arena stays ignorant of their
// types. Their objects are drawn with Get and never Put: ResetTrial
// reclaims them all, and a pointer is valid until then.
func Slot[T any](a *Arena, key string) *pool.Objects[T] {
	s, ok := a.stores[key].(*pool.Objects[T])
	if !ok {
		s = new(pool.Objects[T])
		a.stores[key] = s
	}
	return s
}

// ResetTrial ends one trial and prepares the next: the clock returns to
// the epoch (pending events recycled, armed timers inert), then every
// store reclaims everything it ever allocated — including objects
// stranded mid-flight in the dying trial's links and the buffers its
// links and senders still hold. No memory is released; that retention is
// the arena's entire point. Call it only between trials, after every
// result has been read out of the dying trial's objects: their memory is
// reused by the next one.
func (a *Arena) ResetTrial() {
	a.Clock.Reset()
	for _, s := range a.stores {
		s.Reset()
	}
}

// Balance checks the arena's stores. Test-only: every trial-level leak
// test calls it, and ROADMAP item 1(a) asserts it in every -check run.
// It fails if
//   - a free list holds an entry twice;
//   - a free list holds an entry its store did not allocate;
//   - the clock has nothing pending, yet a frame or a segment wrapper is
//     not free.
//
// Cells and buffers may be held at that point: teardown abandons cells,
// and open senders and links hold buffers. peers are the arenas of the
// other shards of a sharded trial, which draw a cell or a segment on one
// shard and recycle it on another: each of a's stores is checked
// together with the peers' store of the same name, and the clock must be
// idle on every shard.
func (a *Arena) Balance(peers ...*Arena) error {
	idle := a.Clock.Pending() == 0
	for _, p := range peers {
		idle = idle && p.Clock.Pending() == 0
	}
	for name, s := range a.stores {
		group := []pool.Store{s}
		for _, p := range peers {
			if ps := p.stores[name]; ps != nil {
				group = append(group, ps)
			}
		}
		held, err := pool.Balance(group...)
		if err == nil && idle && held > 0 && (name == "frames" || name == "segments") {
			err = fmt.Errorf("%d held with the clock idle", held)
		}
		if err != nil {
			return fmt.Errorf("arena: %s: %w", name, err)
		}
	}
	return nil
}

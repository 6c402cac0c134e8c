// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine is the substrate everything else in this repository runs on:
// network links, transport timers, and application workloads all schedule
// events on a single virtual clock. Simulated time is represented as
// time.Duration offsets from the simulation epoch, so a nanosecond of
// virtual time costs nothing to "wait" for.
//
// The design mirrors the event core of ns-3 (which the paper's nstor
// framework builds on): a priority queue of timestamped events, a strictly
// monotone clock, and stable FIFO ordering for events scheduled at the
// same instant. Determinism is a hard requirement — given the same seed,
// every experiment in this repository reproduces byte-identical traces.
//
// The scheduler is built for an allocation-free steady state: the
// priority queue is an inlined 4-ary min-heap specialized to the event
// type (shallower than a binary heap, and the four-child comparison loop
// stays in cache), fired and cancelled events are recycled through a
// per-clock free list, and cancellation removes the event from the heap
// immediately, so long runs that arm and disarm millions of timers never
// inflate the queue with dead entries.
package sim

import (
	"fmt"
	"math"
	"time"
)

// Time is a point in virtual time, measured as an offset from the
// simulation epoch (t = 0). It is a distinct type so that virtual time
// cannot be accidentally mixed with wall-clock time.
type Time time.Duration

// Common Time constants re-exported for convenience.
const (
	Nanosecond  Time = Time(time.Nanosecond)
	Microsecond Time = Time(time.Microsecond)
	Millisecond Time = Time(time.Millisecond)
	Second      Time = Time(time.Second)
)

// MaxTime is the largest representable instant. It is used as the
// default horizon for unbounded runs.
const MaxTime Time = Time(math.MaxInt64)

// Duration converts t to a time.Duration offset from the epoch.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Seconds returns the instant expressed in seconds.
func (t Time) Seconds() float64 { return time.Duration(t).Seconds() }

// Milliseconds returns the instant expressed in milliseconds, with
// sub-millisecond precision retained.
func (t Time) Milliseconds() float64 { return float64(t) / float64(time.Millisecond) }

// Add returns the instant d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration between t and u (t - u).
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Before reports whether t is strictly earlier than u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t is strictly later than u.
func (t Time) After(u Time) bool { return t > u }

func (t Time) String() string { return time.Duration(t).String() }

// event is a single scheduled callback. Events are owned by their Clock
// and recycled through its free list after firing or cancellation; a
// generation counter invalidates any Handle still pointing at a recycled
// event.
type event struct {
	at     Time
	origin Time   // virtual instant the scheduling call was made
	seq    uint64 // tie-breaker for equal (at, origin): lane, then FIFO (see Key)
	fn     func()
	idx    int32  // heap index, -1 when not queued
	gen    uint64 // bumped on recycle; Handles capture the value they saw
	clk    *Clock // owning clock, for Handle.Cancel
	nxt    *event // free-list link
}

// heapSlot is one heap entry: the event's sort key inlined next to its
// pointer. Keeping (at, seq) in the heap's own backing array means the
// sift loops compare against contiguous memory instead of dereferencing
// a scattered *event per comparison — on transfer-heavy runs the heap
// is the single hottest structure and those misses dominated it.
type heapSlot struct {
	at     Time
	origin Time
	seq    uint64
	ev     *event
}

// slotLess orders entries by (at, origin, seq) — earliest instant
// first, then earliest scheduling instant, then seq. For events
// scheduled through At the origin is the current time and seq is the
// clock's own counter, so origin order and seq order always agree and
// the key degenerates to the classic (at, seq) FIFO. The sharded engine
// keys every backbone-trunk delivery with LaneKey instead: seq then
// holds the trunk's lane above a per-trunk count, so deliveries that
// tie on (at, origin) fire after the clock's own events, in lane order,
// FIFO within a lane — an order no scheduling history enters, and
// therefore the same whether the trunk is local to the shard or its
// deliveries are imported at a barrier.
func slotLess(a, b heapSlot) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.origin != b.origin {
		return a.origin < b.origin
	}
	return a.seq < b.seq
}

// Clock is a discrete-event scheduler plus virtual clock. It is not safe
// for concurrent use: the entire simulation is single-threaded by design,
// which is what makes runs reproducible.
type Clock struct {
	now     Time
	queue   []heapSlot // 4-ary min-heap ordered by (at, seq)
	seq     uint64
	free    *event // recycled events awaiting reuse
	running bool
	stopped bool
	// rootOpen is set while a fired event's handler runs: queue[0] is
	// then a vacant slot, not an event (see fire).
	rootOpen bool

	// maxPending is the high-water mark of len(queue). It is an int32 in
	// the padding behind the three flags so that Clock stays one 64-byte
	// cache line: the sharded engine allocates its per-shard clocks back
	// to back and writes now/seq/processed on every event from a
	// different core each, so a Clock that outgrows the 64-byte size
	// class shares lines with its neighbour (measured at 72 bytes: +18 %
	// CPU on the scale_sharded benchmark workload).
	maxPending int32
	processed  uint64
}

// NewClock returns a clock positioned at the epoch with an empty queue.
func NewClock() *Clock {
	return &Clock{}
}

// Now returns the current virtual time.
func (c *Clock) Now() Time { return c.now }

// Processed returns the number of events executed so far. It is useful
// for progress accounting in long experiments and for asserting that a
// scenario actually did work.
func (c *Clock) Processed() uint64 { return c.processed }

// Pending returns the number of events currently in the heap. Cancelled
// events are removed from the queue immediately, so the count is exact —
// long transport runs that cancel many RTO timers do not inflate it. It
// counts heap events, not units of simulated work: a link keeps one
// delivery event however many trains it has in propagation (their
// positions are reserved Keys, see Reserve), so Pending is O(links +
// timers), not O(frames in flight).
func (c *Clock) Pending() int {
	c.settle()
	return len(c.queue)
}

// MaxPending returns the high-water mark of Pending since construction
// or the last Reset.
func (c *Clock) MaxPending() int { return int(c.maxPending) }

// Next returns the instant of the earliest pending event and whether
// one exists. The sharded engine uses it as the horizon probe: a shard
// whose next event lies beyond the window end is idle for that window,
// and a trial whose shards are all idle (with empty boundary queues)
// has quiesced and may stop at the barrier.
func (c *Clock) Next() (Time, bool) {
	c.settle()
	if len(c.queue) == 0 {
		return 0, false
	}
	return c.queue[0].at, true
}

// Handle identifies a scheduled event and allows cancelling it. The zero
// Handle is inert: Cancel and Active return false.
type Handle struct {
	ev  *event
	gen uint64
}

// Cancel prevents the event from running, removing it from the queue
// immediately. Cancelling an event that has already fired or been
// cancelled is a no-op. Cancel reports whether the event was still
// pending.
func (h Handle) Cancel() bool {
	if !h.Active() {
		return false
	}
	c := h.ev.clk
	c.heapRemove(h.ev)
	c.release(h.ev)
	return true
}

// Active reports whether the event is still scheduled to run.
func (h Handle) Active() bool {
	return h.ev != nil && h.ev.gen == h.gen && h.ev.idx >= 0
}

// Reschedule moves the pending event to the absolute instant t, with
// cancel-and-reschedule ordering semantics (see Clock.reschedule). It
// reports whether the event was still pending; a fired or cancelled
// event is left alone.
func (h Handle) Reschedule(t Time) bool {
	if !h.Active() {
		return false
	}
	h.ev.clk.reschedule(h.ev, t)
	return true
}

// alloc takes an event from the free list, or grows the arena by one.
func (c *Clock) alloc() *event {
	ev := c.free
	if ev == nil {
		return &event{clk: c}
	}
	c.free = ev.nxt
	ev.nxt = nil
	return ev
}

// release recycles an event that has fired or been cancelled. Bumping
// the generation makes every outstanding Handle to it inert.
func (c *Clock) release(ev *event) {
	ev.fn = nil
	ev.gen++
	ev.nxt = c.free
	c.free = ev
}

// Key is a position in the event order. Reserve issues the exact (at,
// origin, seq) sort key At would have given an event scheduled at the
// moment of the call; such a key is only meaningful on the clock that
// issued it, until that clock's next Reset. LaneKey builds one from
// values that belong to no clock.
type Key struct {
	at     Time
	origin Time
	seq    uint64
}

// laneShift splits Key.seq: the lane in the top 16 bits, a sequence
// number below. Lane 0 is the clock's own counter, so a key from
// Reserve orders before every laned key it ties with on (at, origin).
const laneShift = 48

// LaneKey returns the key (at, origin, lane, n): among keys with equal
// (at, origin) it orders after every key a clock issued itself, then by
// lane, then by n. Nothing in it depends on what else a clock has
// scheduled, so an event keyed this way fires at the same place in the
// order on whichever clock AtKey puts it. lane must be positive, n must
// fit in 48 bits and origin must not exceed at.
func LaneKey(at, origin Time, lane uint16, n uint64) Key {
	if origin > at {
		panic(fmt.Sprintf("sim: event origin %v after its instant %v", origin, at))
	}
	if lane == 0 || n>>laneShift != 0 {
		panic(fmt.Sprintf("sim: LaneKey(lane %d, n %d)", lane, n))
	}
	return Key{at: at, origin: origin, seq: uint64(lane)<<laneShift | n}
}

// At returns the instant the key schedules at.
func (k Key) At() Time { return k.at }

// Reserve claims the position in the event order that At(t, fn) would
// take right now — consuming the sequence number — without putting an
// event in the heap. AtKey schedules under it later. Because firing
// order is a function of the keys alone, an event scheduled under a
// reserved key fires exactly where the direct At would have, provided
// AtKey runs before the clock reaches that position. netem.Link uses the
// pair to keep one delivery event in the heap per link instead of one
// per train in propagation.
func (c *Clock) Reserve(t Time) Key {
	if t < c.now {
		panic(fmt.Sprintf("sim: scheduling event at %v which is before now %v", t, c.now))
	}
	k := Key{at: t, origin: c.now, seq: c.seq}
	c.seq++
	return k
}

// AtKey schedules fn under a key obtained from Reserve or LaneKey. Each
// key schedules at most one event; a key whose instant is already past
// panics like At.
func (c *Clock) AtKey(k Key, fn func()) Handle {
	if k.at < c.now {
		panic(fmt.Sprintf("sim: scheduling event at %v which is before now %v", k.at, c.now))
	}
	if fn == nil {
		panic("sim: nil event function")
	}
	return c.push(k, fn)
}

// At schedules fn to run at the absolute instant t. Scheduling in the
// past panics: that is always a logic error in a discrete-event model.
// It is Reserve and AtKey back to back.
func (c *Clock) At(t Time, fn func()) Handle {
	return c.AtKey(c.Reserve(t), fn)
}

func (c *Clock) push(k Key, fn func()) Handle {
	ev := c.alloc()
	ev.at = k.at
	ev.origin = k.origin
	ev.seq = k.seq
	ev.fn = fn
	c.heapPush(ev)
	return Handle{ev: ev, gen: ev.gen}
}

// After schedules fn to run d after the current instant.
func (c *Clock) After(d time.Duration, fn func()) Handle {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return c.At(c.now.Add(d), fn)
}

// reschedule moves a pending event to the absolute instant t, consuming
// a fresh sequence number exactly as cancel-and-reschedule would, so
// FIFO ordering at equal timestamps is indistinguishable from the
// two-call pattern — without the allocation.
func (c *Clock) reschedule(ev *event, t Time) {
	if t < c.now {
		panic(fmt.Sprintf("sim: scheduling event at %v which is before now %v", t, c.now))
	}
	ev.at = t
	ev.origin = c.now
	ev.seq = c.seq
	c.seq++
	c.heapFix(ev)
}

// Stop aborts a running Run/RunUntil after the current event returns.
func (c *Clock) Stop() { c.stopped = true }

// Reset returns the clock to the epoch with an empty queue, recycling
// every still-pending event through the free list. Outstanding Handles
// and armed Timers become inert exactly as if each event had been
// cancelled. The free list itself is retained, which is the point:
// arena-style trial loops reuse one clock so the event arena built up
// in trial N serves trial N+1 without reallocating. Resetting a clock
// that is currently running panics.
func (c *Clock) Reset() {
	if c.running {
		panic("sim: Reset called while running")
	}
	c.settle()
	for i, slot := range c.queue {
		slot.ev.idx = -1
		c.release(slot.ev)
		c.queue[i] = heapSlot{}
	}
	c.queue = c.queue[:0]
	c.now = 0
	c.seq = 0
	c.processed = 0
	c.maxPending = 0
	c.stopped = false
}

// Run executes events until the queue is empty or Stop is called.
// It returns the time of the last executed event.
func (c *Clock) Run() Time { return c.RunUntil(MaxTime) }

// RunUntil executes events with timestamps <= horizon, advancing the
// clock as it goes. On return the clock is positioned at
// min(horizon, time of last event) — or at horizon exactly when the
// queue still holds later events, so that subsequent scheduling
// continues from the horizon.
func (c *Clock) RunUntil(horizon Time) Time {
	if c.running {
		panic("sim: RunUntil called re-entrantly")
	}
	c.running = true
	c.stopped = false
	defer func() {
		c.running = false
		c.settle() // a handler that panicked left the root open
	}()

	for len(c.queue) > 0 && !c.stopped {
		next := c.queue[0]
		if next.at > horizon {
			c.now = horizon
			return c.now
		}
		c.fire(next)
	}
	if horizon != MaxTime && c.now < horizon {
		c.now = horizon
	}
	return c.now
}

// Step executes exactly one pending event and reports whether one was
// executed. It is primarily a testing aid.
func (c *Clock) Step() bool {
	c.settle()
	if len(c.queue) == 0 {
		return false
	}
	c.fire(c.queue[0])
	return true
}

// fire runs the root event. Its heap slot is left open while the handler
// runs, because nearly every handler schedules a successor (a link event
// its next link event, a timer its re-arm): the first push takes the
// vacant root with one sift-down, where removing the root first and
// pushing afterwards costs a sift-down and a sift-up. Every other heap
// access settles the pop first, and so does fire once the handler
// returns. Firing order is a function of the keys alone, so it cannot
// tell the two apart.
func (c *Clock) fire(root heapSlot) {
	root.ev.idx = -1
	c.rootOpen = true
	fn := root.ev.fn
	c.now = root.at
	c.processed++
	// Recycle before invoking: fn may schedule new events and is
	// allowed to reuse this very event.
	c.release(root.ev)
	fn()
	c.settle()
}

// --- inlined 4-ary min-heap ------------------------------------------
//
// Children of node i sit at 4i+1..4i+4; the parent of node i at
// (i-1)/4. Compared to container/heap this removes the interface
// dispatch per comparison and halves the tree depth.

func (c *Clock) heapPush(ev *event) {
	slot := heapSlot{at: ev.at, origin: ev.origin, seq: ev.seq, ev: ev}
	if c.rootOpen {
		// The heap is as deep as before the fire, which maxPending saw.
		c.rootOpen = false
		c.queue[0] = slot
		c.heapDown(0)
		return
	}
	ev.idx = int32(len(c.queue))
	c.queue = append(c.queue, slot)
	if n := int32(len(c.queue)); n > c.maxPending {
		c.maxPending = n
	}
	c.heapUp(int(ev.idx))
}

// settle completes the pop that fire deferred: the vacant root is filled
// from the heap's last slot. A no-op when the root is not open.
func (c *Clock) settle() {
	if !c.rootOpen {
		return
	}
	c.rootOpen = false
	n := len(c.queue) - 1
	last := c.queue[n]
	c.queue[n] = heapSlot{}
	c.queue = c.queue[:n]
	if n > 0 {
		c.queue[0] = last
		c.heapDown(0)
	}
}

// heapRemove deletes an arbitrary queued event.
func (c *Clock) heapRemove(ev *event) {
	c.settle()
	i := int(ev.idx)
	n := len(c.queue) - 1
	last := c.queue[n]
	c.queue[n] = heapSlot{}
	c.queue = c.queue[:n]
	if i != n {
		c.queue[i] = last
		last.ev.idx = int32(i)
		c.heapDown(i)
		c.heapUp(int(last.ev.idx))
	}
	ev.idx = -1
}

// heapFix restores the heap invariant after ev's (at, seq) changed,
// refreshing the inlined sort key first.
func (c *Clock) heapFix(ev *event) {
	c.settle()
	i := int(ev.idx)
	c.queue[i].at = ev.at
	c.queue[i].origin = ev.origin
	c.queue[i].seq = ev.seq
	c.heapDown(i)
	c.heapUp(int(ev.idx))
}

func (c *Clock) heapUp(i int) {
	slot := c.queue[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !slotLess(slot, c.queue[p]) {
			break
		}
		c.queue[i] = c.queue[p]
		c.queue[i].ev.idx = int32(i)
		i = p
	}
	c.queue[i] = slot
	slot.ev.idx = int32(i)
}

func (c *Clock) heapDown(i int) {
	n := len(c.queue)
	slot := c.queue[i]
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for j := first + 1; j < last; j++ {
			if slotLess(c.queue[j], c.queue[min]) {
				min = j
			}
		}
		if !slotLess(c.queue[min], slot) {
			break
		}
		c.queue[i] = c.queue[min]
		c.queue[i].ev.idx = int32(i)
		i = min
	}
	c.queue[i] = slot
	slot.ev.idx = int32(i)
}

package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// popScheduler is the surface the deferred-pop property test drives: a
// Clock and the reference below both fit it.
type popScheduler struct {
	now func() Time
	// at schedules fn and returns the event's cancel and reschedule.
	at func(t Time, fn func()) (cancel func() bool, reschedule func(Time) bool)
	// peek reports the pending count and the earliest instant.
	peek func() (int, Time)
	run  func()
}

func clockScheduler(c *Clock) popScheduler {
	return popScheduler{
		now: c.Now,
		at: func(t Time, fn func()) (func() bool, func(Time) bool) {
			h := c.At(t, fn)
			return h.Cancel, h.Reschedule
		},
		peek: func() (int, Time) {
			next, _ := c.Next()
			return c.Pending(), next
		},
		run: func() { c.Run() },
	}
}

// refClock is the plain scheduler the Clock must be indistinguishable
// from: an unordered slice scanned for its minimum (at, origin, seq),
// the fired entry removed before its handler runs and every new one
// appended after.
type refClock struct {
	now Time
	seq uint64
	evs []*refEvent
}

type refEvent struct {
	key Key
	fn  func()
}

func (r *refClock) index(e *refEvent) int {
	for i, x := range r.evs {
		if x == e {
			return i
		}
	}
	return -1
}

func (r *refClock) nextKey(t Time) Key {
	k := Key{at: t, origin: r.now, seq: r.seq}
	r.seq++
	return k
}

func (r *refClock) min() int {
	slot := func(k Key) heapSlot { return heapSlot{at: k.at, origin: k.origin, seq: k.seq} }
	m := 0
	for i, e := range r.evs {
		if slotLess(slot(e.key), slot(r.evs[m].key)) {
			m = i
		}
	}
	return m
}

func (r *refClock) scheduler() popScheduler {
	return popScheduler{
		now: func() Time { return r.now },
		at: func(t Time, fn func()) (func() bool, func(Time) bool) {
			e := &refEvent{key: r.nextKey(t), fn: fn}
			r.evs = append(r.evs, e)
			cancel := func() bool {
				i := r.index(e)
				if i < 0 {
					return false
				}
				r.evs = append(r.evs[:i], r.evs[i+1:]...)
				return true
			}
			reschedule := func(t Time) bool {
				if r.index(e) < 0 {
					return false
				}
				e.key = r.nextKey(t)
				return true
			}
			return cancel, reschedule
		},
		peek: func() (int, Time) {
			if len(r.evs) == 0 {
				return 0, 0
			}
			return len(r.evs), r.evs[r.min()].key.at
		},
		run: func() {
			for len(r.evs) > 0 {
				i := r.min()
				e := r.evs[i]
				r.evs = append(r.evs[:i], r.evs[i+1:]...)
				r.now = e.key.at
				e.fn()
			}
		},
	}
}

// popHarness issues a seeded random mix of schedule, cancel, reschedule
// and peek from inside event handlers — zero to four per handler, so a
// fired event's vacant root slot is variously left alone, taken by a
// push, or settled by one of the other accesses before a push arrives.
type popHarness struct {
	s      popScheduler
	rng    *rand.Rand
	log    []string
	nextID int
	budget int
	events []popEvent
}

// popEvent is what the harness keeps of an event it scheduled.
type popEvent struct {
	cancel     func() bool
	reschedule func(Time) bool
}

func (h *popHarness) schedule(t Time) {
	id := h.nextID
	h.nextID++
	cancel, reschedule := h.s.at(t, func() {
		h.log = append(h.log, fmt.Sprintf("fire %d at %v", id, h.s.now()))
		h.act(h.rng.Intn(5))
	})
	h.events = append(h.events, popEvent{cancel, reschedule})
}

func (h *popHarness) act(n int) {
	for ; n > 0 && h.budget > 0; n-- {
		h.budget--
		// Few distinct delays, zero included, so equal instants are common.
		at := h.s.now().Add(time.Duration(h.rng.Intn(4)) * time.Millisecond)
		switch op := h.rng.Intn(8); {
		case op < 4:
			h.schedule(at)
		case op == 4:
			e := h.events[h.rng.Intn(len(h.events))]
			h.log = append(h.log, fmt.Sprintf("cancel %v", e.cancel()))
		case op == 5 || op == 6:
			e := h.events[h.rng.Intn(len(h.events))]
			h.log = append(h.log, fmt.Sprintf("reschedule %v", e.reschedule(at)))
		default:
			n, next := h.s.peek()
			h.log = append(h.log, fmt.Sprintf("pending %d next %v", n, next))
		}
	}
}

func runPopHarness(seed int64, s popScheduler) []string {
	h := &popHarness{s: s, rng: rand.New(rand.NewSource(seed)), budget: 600}
	for i := 0; i < 60; i++ {
		h.schedule(Time(h.rng.Intn(4)) * Millisecond)
	}
	s.run()
	return h.log
}

// TestPropertyDeferredPopFiresLikePopThenPush pins the equivalence fire
// rests on: leaving the fired event's root slot open for the handler's
// first push changes no firing instant, no order, and nothing a handler
// can observe through Pending, Next, Cancel or Reschedule.
func TestPropertyDeferredPopFiresLikePopThenPush(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		c := NewClock()
		got := runPopHarness(seed, clockScheduler(c))
		want := runPopHarness(seed, (&refClock{}).scheduler())
		if len(want) < 300 {
			t.Fatalf("seed %d: only %d log entries; the mix is not exercising the clock", seed, len(want))
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d log entries, reference has %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: diverges at entry %d: clock %q, reference %q", seed, i, got[i], want[i])
			}
		}
		if c.Pending() != 0 {
			t.Fatalf("seed %d: %d events pending after Run", seed, c.Pending())
		}
	}
}

// TestDeferredPopSurvivesAPanickingHandler: a handler that panics leaves
// its root slot open; the clock must settle it before anything else
// reads the heap.
func TestDeferredPopSurvivesAPanickingHandler(t *testing.T) {
	c := NewClock()
	var fired []int
	c.After(time.Millisecond, func() { panic("boom") })
	c.After(2*time.Millisecond, func() { fired = append(fired, 2) })
	c.After(3*time.Millisecond, func() { fired = append(fired, 3) })
	func() {
		defer func() { recover() }()
		c.Run()
	}()
	if c.Pending() != 2 {
		t.Fatalf("Pending = %d after the panic, want 2", c.Pending())
	}
	c.Run()
	if len(fired) != 2 || fired[0] != 2 || fired[1] != 3 {
		t.Fatalf("fired %v after the panic, want [2 3]", fired)
	}
}

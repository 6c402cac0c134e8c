package sim

import (
	"math/rand"
	"testing"
	"time"
)

// orderHarness drives one clock with a seeded random mix of At, After,
// Timer.Arm, Cancel and Reschedule, issued up front and from inside
// event callbacks. One operation kind is "deferrable": the direct
// harness schedules it with At; the reserving harness calls Reserve at
// the same call site and AtKey some time later. Both harnesses draw from
// identically seeded streams in firing order, so they issue the same
// operations for as long as they fire the same events.
type orderHarness struct {
	c       *Clock
	rng     *rand.Rand
	lateRNG *rand.Rand // how late a reservation is scheduled; its own stream
	reserve bool

	log     []int
	nextID  int
	budget  int
	handles []Handle
	timers  []*Timer
	held    []heldEvent
}

type heldEvent struct {
	key Key
	fn  func()
}

func newOrderHarness(seed int64, reserve bool) *orderHarness {
	h := &orderHarness{
		c:       NewClock(),
		rng:     rand.New(rand.NewSource(seed)),
		lateRNG: rand.New(rand.NewSource(seed + 1)),
		reserve: reserve,
		budget:  400,
	}
	for i := 0; i < 3; i++ {
		h.timers = append(h.timers, NewTimer(h.c, h.event()))
	}
	return h
}

// event returns a callback that logs its identity and issues one to three
// further operations.
func (h *orderHarness) event() func() {
	id := h.nextID
	h.nextID++
	return func() {
		h.log = append(h.log, id)
		h.act(1 + h.rng.Intn(3))
	}
}

func (h *orderHarness) act(n int) {
	for ; n > 0 && h.budget > 0; n-- {
		h.budget--
		// Few distinct delays, zero included, so equal instants — where
		// only origin and seq decide the order — are the common case.
		d := time.Duration(h.rng.Intn(4)) * time.Millisecond
		at := h.c.Now().Add(d)
		switch h.rng.Intn(6) {
		case 0:
			h.handles = append(h.handles, h.c.At(at, h.event()))
		case 1:
			h.handles = append(h.handles, h.c.After(d, h.event()))
		case 2:
			h.timers[h.rng.Intn(len(h.timers))].Arm(d)
		case 3:
			if len(h.handles) > 0 {
				h.handles[h.rng.Intn(len(h.handles))].cancel()
			}
		case 4:
			if len(h.handles) > 0 {
				h.handles[h.rng.Intn(len(h.handles))].Reschedule(at)
			}
		case 5:
			fn := h.event()
			if h.reserve {
				h.held = append(h.held, heldEvent{h.c.Reserve(at), fn})
			} else {
				h.c.At(at, fn)
			}
		}
	}
}

// scheduleHeld puts reserved events in the heap: every one whose instant
// the next Step could reach (the contract's deadline), and a random
// share of the others early.
func (h *orderHarness) scheduleHeld() {
	next, pending := h.c.Next()
	kept := h.held[:0]
	for _, e := range h.held {
		if !pending || e.key.at <= next || h.lateRNG.Intn(4) == 0 {
			h.c.AtKey(e.key, e.fn)
		} else {
			kept = append(kept, e)
		}
	}
	h.held = kept
}

func (h *orderHarness) run() {
	h.act(40)
	for {
		h.scheduleHeld()
		if !h.c.Step() {
			return
		}
	}
}

// TestPropertyReservedKeyFiresWhereAtWould is the equivalence the link's
// one-delivery-event-per-link scheme rests on: reserving a position and
// scheduling under it later — any time before the clock gets there —
// fires every event exactly where a direct At would have.
func TestPropertyReservedKeyFiresWhereAtWould(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		direct := newOrderHarness(seed, false)
		reserving := newOrderHarness(seed, true)
		direct.run()
		reserving.run()
		if len(direct.log) < 100 {
			t.Fatalf("seed %d: only %d events fired; the mix is not exercising the clock", seed, len(direct.log))
		}
		if len(direct.log) != len(reserving.log) {
			t.Fatalf("seed %d: %d events fired directly, %d via reserved keys", seed, len(direct.log), len(reserving.log))
		}
		for i := range direct.log {
			if direct.log[i] != reserving.log[i] {
				t.Fatalf("seed %d: firing order diverges at event %d: direct %d, reserved %d",
					seed, i, direct.log[i], reserving.log[i])
			}
		}
		if direct.c.Processed() != reserving.c.Processed() || direct.c.Now() != reserving.c.Now() {
			t.Fatalf("seed %d: Processed %d at %v directly, %d at %v via reserved keys", seed,
				direct.c.Processed(), direct.c.Now(), reserving.c.Processed(), reserving.c.Now())
		}
		if reserving.c.MaxPending() > direct.c.MaxPending() {
			t.Fatalf("seed %d: reserving deepened the heap: %d > %d", seed,
				reserving.c.MaxPending(), direct.c.MaxPending())
		}
	}
}

func TestReservePastInstantPanics(t *testing.T) {
	c := NewClock()
	c.After(2*time.Millisecond, func() {})
	k := c.Reserve(Time(time.Millisecond))
	c.Run()
	t.Run("AtKey", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("AtKey() under a key whose instant is past did not panic")
			}
		}()
		c.AtKey(k, func() {})
	})
	t.Run("Reserve", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("Reserve() in the past did not panic")
			}
		}()
		c.Reserve(Time(time.Millisecond))
	})
}

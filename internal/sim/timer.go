package sim

import "fmt"
import "time"

// Timer is a restartable one-shot timer bound to a Clock. It is the
// building block for transport retransmission timers: arming an already
// armed timer reschedules it, and firing clears the armed state before
// invoking the callback so the callback may re-arm it.
//
// Re-arming an armed timer reschedules its event in place (new instant,
// fresh sequence number) instead of cancelling and reallocating, so the
// arm-per-ACK pattern of the transport RTO is allocation-free; the fire
// callback is bound once at construction for the same reason.
type Timer struct {
	clock  *Clock
	fn     func()
	fireFn func() // t.fire bound once, reused by every (re)arm
	handle Handle
}

// NewTimer returns an unarmed timer that will invoke fn when it fires.
func NewTimer(clock *Clock, fn func()) *Timer {
	if clock == nil {
		panic("sim: NewTimer with nil clock")
	}
	if fn == nil {
		panic("sim: NewTimer with nil function")
	}
	t := &Timer{clock: clock, fn: fn}
	t.fireFn = t.fire
	return t
}

// Arm (re)schedules the timer to fire d from now. Any previously
// scheduled firing is superseded.
func (t *Timer) Arm(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	t.armAt(t.clock.Now().Add(d))
}

// armAt (re)schedules the timer to fire at the absolute instant at.
func (t *Timer) armAt(at Time) {
	if t.handle.active() {
		t.clock.reschedule(t.handle.ev, at)
		return
	}
	t.handle = t.clock.At(at, t.fireFn)
}

// Stop cancels a pending firing. Stopping an unarmed timer is a no-op.
func (t *Timer) Stop() { t.handle.cancel() }

// Armed reports whether the timer is currently scheduled to fire.
func (t *Timer) Armed() bool { return t.handle.active() }

func (t *Timer) fire() {
	t.handle = Handle{}
	t.fn()
}

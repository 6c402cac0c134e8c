package sim

import (
	"testing"
	"time"
)

func TestTimerFires(t *testing.T) {
	c := NewClock()
	fired := 0
	tm := NewTimer(c, func() { fired++ })
	tm.Arm(10 * time.Millisecond)
	if !tm.Armed() {
		t.Fatal("timer should be armed")
	}
	if got := tm.Deadline(); got != Time(10*time.Millisecond) {
		t.Errorf("Deadline = %v, want 10ms", got)
	}
	c.Run()
	if fired != 1 {
		t.Errorf("fired %d times, want 1", fired)
	}
	if tm.Armed() {
		t.Error("timer should be unarmed after firing")
	}
}

func TestTimerRearmReschedules(t *testing.T) {
	c := NewClock()
	var at Time
	tm := NewTimer(c, func() { at = c.Now() })
	tm.Arm(10 * time.Millisecond)
	tm.Arm(30 * time.Millisecond) // supersedes the first arming
	c.Run()
	if at != Time(30*time.Millisecond) {
		t.Errorf("fired at %v, want 30ms (re-arm must cancel prior schedule)", at)
	}
}

func TestTimerStop(t *testing.T) {
	c := NewClock()
	fired := false
	tm := NewTimer(c, func() { fired = true })
	tm.Arm(10 * time.Millisecond)
	tm.Stop()
	if tm.Armed() {
		t.Error("timer armed after Stop")
	}
	c.Run()
	if fired {
		t.Error("stopped timer fired")
	}
	tm.Stop() // stopping an unarmed timer is a no-op
}

func TestTimerRearmFromCallback(t *testing.T) {
	c := NewClock()
	var fires []Time
	var tm *Timer
	tm = NewTimer(c, func() {
		fires = append(fires, c.Now())
		if len(fires) < 3 {
			tm.Arm(5 * time.Millisecond)
		}
	})
	tm.Arm(5 * time.Millisecond)
	c.Run()
	want := []Time{Time(5 * time.Millisecond), Time(10 * time.Millisecond), Time(15 * time.Millisecond)}
	if len(fires) != len(want) {
		t.Fatalf("fired %d times, want %d", len(fires), len(want))
	}
	for i := range want {
		if fires[i] != want[i] {
			t.Errorf("fire %d at %v, want %v", i, fires[i], want[i])
		}
	}
}

func TestTimerArmAt(t *testing.T) {
	c := NewClock()
	var at Time
	tm := NewTimer(c, func() { at = c.Now() })
	tm.ArmAt(Time(42 * time.Millisecond))
	c.Run()
	if at != Time(42*time.Millisecond) {
		t.Errorf("fired at %v, want 42ms", at)
	}
}

func TestTimerDeadlineUnarmed(t *testing.T) {
	c := NewClock()
	tm := NewTimer(c, func() {})
	if tm.Deadline() != 0 {
		t.Error("Deadline of unarmed timer should be 0")
	}
}

func TestNewTimerPanics(t *testing.T) {
	c := NewClock()
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("nil clock", func() { NewTimer(nil, func() {}) })
	mustPanic("nil fn", func() { NewTimer(c, nil) })
}

func TestTimerRearmMatchesCancelScheduleOrdering(t *testing.T) {
	// Rescheduling in place must be indistinguishable from cancel +
	// schedule: a timer re-armed to an instant where another event is
	// later scheduled fires in (re)arm order, not original-arm order.
	c := NewClock()
	var order []string
	tm := NewTimer(c, func() { order = append(order, "timer") })
	tm.Arm(5 * time.Millisecond)
	c.After(time.Millisecond, func() { order = append(order, "a") })
	tm.Arm(time.Millisecond) // re-arm to the same instant as "a", after it
	c.After(time.Millisecond, func() { order = append(order, "b") })
	c.Run()
	want := [3]string{"a", "timer", "b"}
	if [3]string(order) != want {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

func TestTimerRearmNegativeDelayPanics(t *testing.T) {
	c := NewClock()
	tm := NewTimer(c, func() {})
	tm.Arm(time.Millisecond)
	defer func() {
		if recover() == nil {
			t.Fatal("negative re-arm did not panic")
		}
	}()
	tm.Arm(-time.Second)
}

// TestTimerRearmZeroAlloc pins the rearm the transport RTO performs on
// every acknowledgment: an armed timer is rescheduled in place.
func TestTimerRearmZeroAlloc(t *testing.T) {
	c := NewClock()
	tm := NewTimer(c, func() {})
	tm.Arm(time.Millisecond)
	if avg := testing.AllocsPerRun(100, func() { tm.Arm(time.Millisecond) }); avg != 0 {
		t.Fatalf("timer rearm allocates %.1f per call", avg)
	}
}

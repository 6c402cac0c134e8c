package sim

import (
	"testing"
	"time"
)

// BenchmarkClockScheduleRun measures raw event throughput including the
// per-iteration closure the caller builds. The closure is the one
// allocation; the hoisted-callback path is pinned at zero by
// TestScheduleFireZeroAlloc.
func BenchmarkClockScheduleRun(b *testing.B) {
	c := NewClock()
	n := 0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.After(time.Microsecond, func() { n++ })
		c.Run()
	}
	if n != b.N {
		b.Fatalf("executed %d of %d", n, b.N)
	}
}

// BenchmarkClockDeepQueue measures heap behaviour with many pending
// events: 1024 timers armed, then drained.
func BenchmarkClockDeepQueue(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := NewClock()
		n := 0
		for j := 0; j < 1024; j++ {
			c.After(time.Duration(j)*time.Microsecond, func() { n++ })
		}
		c.Run()
		if n != 1024 {
			b.Fatal("lost events")
		}
	}
}

// BenchmarkTimerCancelRearm measures the stop-then-arm cycle (probe
// timers): cancellation must recycle the event through the free list.
func BenchmarkTimerCancelRearm(b *testing.B) {
	c := NewClock()
	tm := NewTimer(c, func() {})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tm.Arm(time.Millisecond)
		tm.Stop()
	}
	c.Run()
}

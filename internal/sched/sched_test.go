package sched

import (
	"testing"
	"time"

	"circuitstart/internal/netem"
	"circuitstart/internal/sim"
	"circuitstart/internal/units"
)

func frame(circ uint32, size units.DataSize) *netem.Frame {
	return &netem.Frame{Src: "a", Dst: "b", Size: size, Circ: circ}
}

func TestFIFOOrder(t *testing.T) {
	q := NewFIFO()
	for i := uint32(1); i <= 20; i++ {
		if !q.Push(frame(i, 512)) {
			t.Fatalf("FIFO refused frame %d", i)
		}
	}
	if q.Len() != 20 {
		t.Fatalf("Len = %d, want 20", q.Len())
	}
	for i := uint32(1); i <= 20; i++ {
		f := q.Pop()
		if f == nil || f.Circ != i {
			t.Fatalf("popped %+v, want circuit %d", f, i)
		}
	}
	if q.Pop() != nil {
		t.Fatal("empty FIFO popped a frame")
	}
}

// TestEWMAPrefersQuietCircuit: after a bulk circuit has been charged
// for its transmissions, a newly queued quiet circuit's frame jumps
// ahead of the bulk backlog at the next slot.
func TestEWMAPrefersQuietCircuit(t *testing.T) {
	clock := sim.NewClock()
	q := NewEWMA(clock, 0)
	// Bulk circuit 1 sends four cells, accumulating cost.
	for i := 0; i < 4; i++ {
		q.Push(frame(1, 512))
		if f := q.Pop(); f.Circ != 1 {
			t.Fatalf("warm-up popped circuit %d", f.Circ)
		}
	}
	// Both queue one frame; the quiet circuit 2 must win the slot.
	q.Push(frame(1, 512))
	q.Push(frame(2, 512))
	if f := q.Pop(); f.Circ != 2 {
		t.Fatalf("popped circuit %d, want quiet circuit 2", f.Circ)
	}
	if f := q.Pop(); f.Circ != 1 {
		t.Fatalf("popped circuit %d, want bulk circuit 1", f.Circ)
	}
}

// TestEWMATieBreaksOnCreationOrder: equal costs are ordered by the
// deterministic creation sequence, never map order.
func TestEWMATieBreaksOnCreationOrder(t *testing.T) {
	clock := sim.NewClock()
	q := NewEWMA(clock, 0)
	for circ := uint32(1); circ <= 8; circ++ {
		q.Push(frame(circ, 512))
	}
	for circ := uint32(1); circ <= 8; circ++ {
		f := q.Pop()
		if f.Circ != circ {
			t.Fatalf("popped circuit %d, want %d (creation order)", f.Circ, circ)
		}
	}
}

// TestEWMACostDecays: a past heavy sender's cost decays relative to
// fresh charges, so after several half-lives it competes as if quiet.
func TestEWMACostDecays(t *testing.T) {
	clock := sim.NewClock()
	q := NewEWMA(clock, 100*time.Millisecond)
	// Circuit 1 sends ten cells at t=0.
	for i := 0; i < 10; i++ {
		q.Push(frame(1, 512))
		q.Pop()
	}
	// Circuit 2 sends one cell much later: its single fresh charge
	// outweighs circuit 1's decayed history.
	clock.After(time.Second, func() {
		q.Push(frame(2, 512))
		q.Pop()
		q.Push(frame(1, 512))
		q.Push(frame(2, 512))
		if f := q.Pop(); f.Circ != 1 {
			t.Fatalf("popped circuit %d, want decayed circuit 1", f.Circ)
		}
	})
	clock.Run()
}

// TestEWMAForget releases idle circuits but leaves queued ones alone.
func TestEWMAForget(t *testing.T) {
	clock := sim.NewClock()
	q := NewEWMA(clock, 0)
	q.Push(frame(1, 512))
	q.Forget(1) // queued: must be a no-op
	if f := q.Pop(); f == nil || f.Circ != 1 {
		t.Fatal("Forget dropped a circuit with queued frames")
	}
	q.Forget(1) // idle: released to the free list
	q.Forget(9) // unknown: no-op
	// The freed node is reused with reset cost and a fresh sequence.
	q.Push(frame(2, 512))
	q.Pop()
	q.Push(frame(1, 512))
	q.Push(frame(2, 512))
	if f := q.Pop(); f.Circ != 1 {
		t.Fatalf("popped circuit %d, want re-created circuit 1 at cost 0", f.Circ)
	}
}

// TestEWMAZeroAllocSteadyState pins the hot-path contract: one
// push/pop cycle of 8 competing circuits' frames through the cost heap
// allocates nothing once rings, heap and node map are warm.
func TestEWMAZeroAllocSteadyState(t *testing.T) {
	clock := sim.NewClock()
	q := NewEWMA(clock, 0)
	frames := make([]*netem.Frame, 8)
	for i := range frames {
		frames[i] = frame(uint32(i+1), 512)
	}
	cycle := func() {
		for _, f := range frames {
			q.Push(f)
		}
		for range frames {
			q.Pop()
		}
	}
	cycle() // warm the rings, heap and node map
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Fatalf("steady-state push/pop allocates %.1f per cycle", avg)
	}
}

func TestPoliceRefusesWhenDry(t *testing.T) {
	clock := sim.NewClock()
	q := NewPolice(NewFIFO(), clock, units.Mbps(8), 1024*units.Byte)
	if !q.Push(frame(1, 512)) || !q.Push(frame(1, 512)) {
		t.Fatal("burst-sized pushes refused")
	}
	if q.Push(frame(1, 512)) {
		t.Fatal("push beyond the bucket accepted")
	}
	if q.Len() != 2 {
		t.Fatalf("Len = %d, want 2", q.Len())
	}
	// 8 Mbit/s = 1 MB/s: after 1 ms the bucket holds ~1000 bytes again.
	clock.After(time.Millisecond, func() {
		if !q.Push(frame(1, 512)) {
			t.Fatal("push after refill refused")
		}
	})
	clock.Run()
	for i := 0; i < 3; i++ {
		if q.Pop() == nil {
			t.Fatalf("admitted frame %d missing", i)
		}
	}
}

func TestPoliceBucketCapsAtBurst(t *testing.T) {
	clock := sim.NewClock()
	q := NewPolice(NewFIFO(), clock, units.Mbps(100), 512*units.Byte)
	// However long the idle period, the bucket never exceeds one burst.
	clock.After(time.Second, func() {
		if !q.Push(frame(1, 512)) {
			t.Fatal("first push refused")
		}
		if q.Push(frame(1, 512)) {
			t.Fatal("bucket exceeded its burst depth")
		}
	})
	clock.Run()
}

package netem

import (
	"testing"
	"time"

	"circuitstart/internal/sim"
	"circuitstart/internal/units"
)

// collector records delivered frames with timestamps.
type collector struct {
	clock *sim.Clock
	got   []delivered
}

type delivered struct {
	f  *Frame
	at sim.Time
}

func (c *collector) Deliver(f *Frame) {
	cp := *f
	c.got = append(c.got, delivered{f: &cp, at: c.clock.Now()})
}

func TestPriorityFramesJumpDataQueue(t *testing.T) {
	clock := sim.NewClock()
	col := &collector{clock: clock}
	// Slow link: 1 Mbit/s, so a 500 B data frame takes 4 ms to serialize.
	link := NewLink("l", clock, LinkConfig{Rate: units.Mbps(1), Delay: 0}, col)

	// Fill the queue with three data frames, then offer a control frame.
	for i := 0; i < 3; i++ {
		link.Send(&Frame{Src: "a", Dst: "b", Size: 500, Payload: i})
	}
	link.Send(&Frame{Src: "a", Dst: "b", Size: 24, Payload: "ctrl", Priority: true})

	clock.Run()
	if len(col.got) != 4 {
		t.Fatalf("delivered %d frames", len(col.got))
	}
	// Frame 0 was already serializing when the control frame arrived;
	// the control frame must overtake frames 1 and 2.
	if col.got[0].f.Payload != 0 {
		t.Fatalf("first delivery = %v", col.got[0].f.Payload)
	}
	if col.got[1].f.Payload != "ctrl" {
		t.Fatalf("control frame did not jump the queue: order %v, %v, %v, %v",
			col.got[0].f.Payload, col.got[1].f.Payload, col.got[2].f.Payload, col.got[3].f.Payload)
	}
}

func TestPriorityFIFOWithinClass(t *testing.T) {
	clock := sim.NewClock()
	col := &collector{clock: clock}
	link := NewLink("l", clock, LinkConfig{Rate: units.Mbps(1), Delay: 0}, col)

	link.Send(&Frame{Src: "a", Dst: "b", Size: 500, Payload: "d0"})
	link.Send(&Frame{Src: "a", Dst: "b", Size: 24, Payload: "c0", Priority: true})
	link.Send(&Frame{Src: "a", Dst: "b", Size: 24, Payload: "c1", Priority: true})
	link.Send(&Frame{Src: "a", Dst: "b", Size: 500, Payload: "d1"})

	clock.Run()
	want := []any{"d0", "c0", "c1", "d1"}
	for i, w := range want {
		if col.got[i].f.Payload != w {
			t.Fatalf("delivery %d = %v, want %v", i, col.got[i].f.Payload, w)
		}
	}
}

func TestPriorityCountsAgainstQueueCap(t *testing.T) {
	clock := sim.NewClock()
	col := &collector{clock: clock}
	link := NewLink("l", clock, LinkConfig{
		Rate: units.Kbps(64), Delay: 0, QueueCap: 600,
	}, col)

	// First frame starts serializing (does not occupy the queue); the
	// second fills the 600 B cap; control frames must then be refused
	// like any other frame — the cap models real buffer memory.
	if !link.Send(&Frame{Src: "a", Dst: "b", Size: 500, Payload: 0}) {
		t.Fatal("first frame refused")
	}
	if !link.Send(&Frame{Src: "a", Dst: "b", Size: 500, Payload: 1}) {
		t.Fatal("second frame refused")
	}
	if link.Send(&Frame{Src: "a", Dst: "b", Size: 200, Payload: "ctrl", Priority: true}) {
		t.Fatal("control frame accepted beyond the queue cap")
	}
	if link.Stats().TailDrops != 1 {
		t.Fatalf("TailDrops = %d", link.Stats().TailDrops)
	}
}

func TestSendPriorityTraversesStar(t *testing.T) {
	clock := sim.NewClock()
	star := NewStarFabric(clock)
	colA := &collector{clock: clock}
	colB := &collector{clock: clock}
	pa := star.Attach("a", Symmetric(units.Mbps(1), time.Millisecond, 0), colA, nil)
	star.Attach("b", Symmetric(units.Mbps(1), time.Millisecond, 0), colB, nil)

	// Two bulk frames, then a priority frame: on b's downlink the
	// priority frame must again overtake the queued bulk frame.
	pa.Send("b", 500, "bulk0")
	pa.Send("b", 500, "bulk1")
	pa.SendPriority("b", 24, "ctrl")
	clock.Run()

	if len(colB.got) != 3 {
		t.Fatalf("b received %d frames", len(colB.got))
	}
	// On the uplink the ctrl frame overtakes bulk1; order at b is then
	// bulk0, ctrl, bulk1.
	if colB.got[1].f.Payload != "ctrl" {
		t.Fatalf("order at b: %v, %v, %v",
			colB.got[0].f.Payload, colB.got[1].f.Payload, colB.got[2].f.Payload)
	}
	if !colB.got[1].f.Priority {
		t.Fatal("priority bit lost crossing the switch")
	}
}

func TestSetRateAppliesToSubsequentFrames(t *testing.T) {
	clock := sim.NewClock()
	col := &collector{clock: clock}
	link := NewLink("l", clock, LinkConfig{Rate: units.Mbps(1), Delay: 0}, col)

	// 500 B at 1 Mbit/s = 4 ms each.
	link.Send(&Frame{Src: "a", Dst: "b", Size: 500, Payload: 0})
	link.Send(&Frame{Src: "a", Dst: "b", Size: 500, Payload: 1})
	// Double the rate while frame 0 is serializing.
	clock.After(time.Millisecond, func() { link.SetRate(units.Mbps(2)) })
	clock.Run()

	if len(col.got) != 2 {
		t.Fatalf("delivered %d", len(col.got))
	}
	// Frame 0 finishes at 4 ms (old rate); frame 1 serializes at 2
	// Mbit/s → 2 ms → delivered at 6 ms.
	if got := col.got[0].at; got != sim.Time(4*time.Millisecond) {
		t.Fatalf("frame 0 delivered at %v", got)
	}
	if got := col.got[1].at; got != sim.Time(6*time.Millisecond) {
		t.Fatalf("frame 1 delivered at %v, want 6ms", got)
	}
}

func TestSetRatePanicsOnNonPositive(t *testing.T) {
	clock := sim.NewClock()
	link := NewLink("l", clock, LinkConfig{Rate: units.Mbps(1)}, HandlerFunc(func(*Frame) {}))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	link.SetRate(0)
}

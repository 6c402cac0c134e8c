package arena

import (
	"testing"
	"time"

	"circuitstart/internal/sim"
	"circuitstart/internal/transport"
)

func TestArenaResetTrialRewindsEverything(t *testing.T) {
	a := New()

	// Dirty every component the way a trial would: advance the clock
	// past pending events, strand objects outside the free lists.
	fired := 0
	a.Clock.After(time.Millisecond, func() { fired++ })
	a.Clock.After(time.Hour, func() { fired++ }) // stays pending
	a.Clock.RunUntil(sim.Time(time.Second))
	if fired != 1 || a.Clock.Pending() != 1 {
		t.Fatalf("setup: fired=%d pending=%d", fired, a.Clock.Pending())
	}
	frame := a.Frames.Get() // in flight when the trial dies
	cellA := a.Cells.Get()
	segA := a.Segments.Get()

	a.ResetTrial()

	if now := a.Clock.Now(); now != 0 {
		t.Errorf("clock at %v after ResetTrial, want epoch", now)
	}
	if p := a.Clock.Pending(); p != 0 {
		t.Errorf("%d events still pending after ResetTrial", p)
	}
	// The pending event must never fire on the next trial's timeline.
	a.Clock.Run()
	if fired != 1 {
		t.Error("dead trial's event fired after ResetTrial")
	}
	// Stranded objects are reclaimed: the next trial draws the same
	// memory instead of allocating.
	if got := a.Frames.Get(); got != frame {
		t.Error("stranded frame not reclaimed by ResetTrial")
	}
	if got := a.Cells.Get(); got != cellA {
		t.Error("stranded cell not reclaimed by ResetTrial")
	}
	if got := a.Segments.Get(); got != segA {
		t.Error("stranded segment not reclaimed by ResetTrial")
	}
}

// TestSlabReusesMemoryAcrossResets pins that a slot store, the arena's
// slab of trial-lifetime objects, zeroes everything on ResetTrial and
// hands the same memory to the next trial instead of allocating.
func TestSlabReusesMemoryAcrossResets(t *testing.T) {
	type obj struct {
		a, b int
		ref  *int
	}
	a := New()
	s := Slot[obj](a, "arena.test")
	first := make([]*obj, 0, 100)
	for i := 0; i < 100; i++ {
		p := s.Get()
		p.a, p.b, p.ref = i, -i, new(int)
		first = append(first, p)
	}
	if s.Len() != 100 {
		t.Fatalf("Len = %d, want 100", s.Len())
	}
	a.ResetTrial()
	// Reset itself zeroes, so a slot on an idle arena pins nothing its
	// last trial's objects pointed to.
	for i, p := range first {
		if *p != (obj{}) {
			t.Fatalf("object %d not zeroed by ResetTrial: %+v", i, *p)
		}
	}
	// The free list is rebuilt in allocation order and pops from its
	// end, so the next trial draws the same objects last-first.
	for i := 99; i >= 0; i-- {
		p := s.Get()
		if p != first[i] {
			t.Fatalf("object %d not reused: slot allocated fresh memory after ResetTrial", i)
		}
		if *p != (obj{}) {
			t.Fatalf("object %d not zeroed on reuse: %+v", i, *p)
		}
	}
	if s.Len() != 100 {
		t.Fatalf("Len after reuse = %d, want the 100 allocated before ResetTrial", s.Len())
	}
}

func TestArenaSlotsCreateOnceAndReset(t *testing.T) {
	a := New()
	s1 := Slot[int](a, "pkg.test")
	if s2 := Slot[int](a, "pkg.test"); s1 != s2 {
		t.Fatal("one key made two stores")
	}
	first, second := s1.Get(), s1.Get()
	*first, *second = 7, 8
	a.ResetTrial()
	if *first != 0 || *second != 0 {
		t.Error("ResetTrial left a slot object dirty")
	}
	// The next trial reuses the same memory instead of allocating.
	if x, y := s1.Get(), s1.Get(); x != second || y != first || s1.Len() != 2 {
		t.Errorf("the slot allocated after ResetTrial: %d objects, want the 2 it had", s1.Len())
	}
	// Distinct keys get distinct stores.
	if other := Slot[int](a, "pkg.other"); other == s1 {
		t.Error("distinct slot keys share a store")
	}
}

// TestArenaBalanceCatchesLeaks pins what Balance reports: a frame or a
// segment wrapper held once the clock is idle, a double Put, and an
// object its store did not allocate — and that a cell traded between the
// arenas of two shards balances only when the shards are checked
// together.
func TestArenaBalanceCatchesLeaks(t *testing.T) {
	a := New()
	if err := a.Balance(); err != nil {
		t.Fatalf("a fresh arena does not balance: %v", err)
	}
	f := a.Frames.Get()
	if err := a.Balance(); err == nil {
		t.Error("Balance missed a frame held with the clock idle")
	}
	f.Payload = a.Segments.Get()
	a.Frames.Put(f) // the put hook frees the segment it carries
	if err := a.Balance(); err != nil {
		t.Errorf("a frame and its segment came back, yet: %v", err)
	}
	a.Cells.Get() // teardown abandons cells: not a leak
	if err := a.Balance(); err != nil {
		t.Errorf("a held cell failed Balance: %v", err)
	}

	c := a.Cells.Get()
	a.Cells.Put(c)
	a.Cells.Put(c)
	if err := a.Balance(); err == nil {
		t.Error("Balance missed a double Put")
	}
	a.ResetTrial()
	a.Segments.Put(&transport.Segment{})
	if err := a.Balance(); err == nil {
		t.Error("Balance missed a segment the arena did not allocate")
	}

	a, b := New(), New()
	b.Cells.Put(a.Cells.Get())
	if err := b.Balance(); err == nil {
		t.Error("Balance of one shard missed a cell it did not allocate")
	}
	if err := b.Balance(a); err != nil {
		t.Errorf("a cell traded between shards does not balance across them: %v", err)
	}
}

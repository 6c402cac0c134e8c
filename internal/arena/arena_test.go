package arena

import (
	"testing"
	"time"

	"circuitstart/internal/sim"
)

func TestSlabReusesMemoryAcrossResets(t *testing.T) {
	type obj struct {
		a, b int
		ref  *int
	}
	var s Slab[obj]
	first := make([]*obj, 0, 100)
	for i := 0; i < 100; i++ {
		p := s.New()
		p.a, p.b, p.ref = i, -i, new(int)
		first = append(first, p)
	}
	if s.Len() != 100 {
		t.Fatalf("Len = %d, want 100", s.Len())
	}
	s.Reset()
	if s.Len() != 0 {
		t.Fatalf("Len after Reset = %d", s.Len())
	}
	// Reset itself zeroes, so a slab on an idle arena pins nothing its
	// last trial's objects pointed to.
	for i, p := range first {
		if *p != (obj{}) {
			t.Fatalf("object %d not zeroed by Reset: %+v", i, *p)
		}
	}
	for i := 0; i < 100; i++ {
		p := s.New()
		if p != first[i] {
			t.Fatalf("object %d not reused: slab allocated fresh memory after Reset", i)
		}
		if p.a != 0 || p.b != 0 {
			t.Fatalf("object %d not zeroed on reuse: %+v", i, *p)
		}
	}
}

func TestSlabPointersStableAcrossGrowth(t *testing.T) {
	// Chunking must keep issued pointers valid while the slab grows —
	// a slice-backed slab would invalidate them on reallocation.
	var s Slab[int]
	p0 := s.New()
	*p0 = 42
	for i := 0; i < 10*slabChunk; i++ {
		s.New()
	}
	if *p0 != 42 {
		t.Fatal("early pointer invalidated by slab growth")
	}
}

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

func TestArenaSlotsCreateOnceAndReset(t *testing.T) {
	a := New()
	made := 0
	mk := func() any { made++; return &Slab[int]{} }
	s1 := a.Slot("pkg.test", mk).(*Slab[int])
	s2 := a.Slot("pkg.test", mk).(*Slab[int])
	if s1 != s2 || made != 1 {
		t.Fatalf("Slot created %d values, want 1 shared", made)
	}
	s1.New()
	s1.New()
	a.ResetTrial()
	if s1.Len() != 0 {
		t.Errorf("resettable slot not rewound: Len = %d", s1.Len())
	}
	// Distinct keys get distinct slabs.
	if other := a.Slot("pkg.other", mk).(*Slab[int]); other == s1 {
		t.Error("distinct slot keys share a value")
	}
}

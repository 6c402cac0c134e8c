package metrics

import (
	"testing"
	"testing/quick"

	"circuitstart/internal/sim"
)

func ms(v int) sim.Time { return sim.Time(v) * sim.Millisecond }

func TestSeriesRecordAndAccessors(t *testing.T) {
	s := NewSeries("cwnd")
	if s.Name() != "cwnd" {
		t.Fatalf("Name = %q", s.Name())
	}
	if s.Len() != 0 {
		t.Fatalf("empty series Len = %d", s.Len())
	}
	if _, ok := s.Last(); ok {
		t.Fatal("Last on empty series reported ok")
	}
	s.Record(ms(1), 2)
	s.Record(ms(2), 4)
	s.Record(ms(2), 8) // same instant is allowed
	s.Record(ms(5), 3)
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want 4", s.Len())
	}
	last, ok := s.Last()
	if !ok || last.Value != 3 || last.At != ms(5) {
		t.Fatalf("Last = %+v, %v", last, ok)
	}
}

func TestSeriesRecordOutOfOrderPanics(t *testing.T) {
	s := NewSeries("x")
	s.Record(ms(10), 1)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order Record did not panic")
		}
	}()
	s.Record(ms(9), 2)
}

func TestSeriesAtStepInterpolation(t *testing.T) {
	s := NewSeries("x")
	s.Record(ms(10), 1)
	s.Record(ms(20), 2)
	s.Record(ms(30), 3)

	if _, ok := s.At(ms(9)); ok {
		t.Fatal("At before first sample reported ok")
	}
	cases := []struct {
		t    sim.Time
		want float64
	}{
		{ms(10), 1}, {ms(15), 1}, {ms(20), 2}, {ms(29), 2}, {ms(30), 3}, {ms(1000), 3},
	}
	for _, c := range cases {
		got, ok := s.At(c.t)
		if !ok || got != c.want {
			t.Errorf("At(%v) = %v, %v; want %v", c.t, got, ok, c.want)
		}
	}
}

func TestSeriesMinMax(t *testing.T) {
	s := NewSeries("x")
	if _, ok := s.Max(); ok {
		t.Fatal("Max of empty series reported ok")
	}
	for i, v := range []float64{3, -1, 7, 2} {
		s.Record(ms(i), v)
	}
	if mx, _ := s.Max(); mx != 7 {
		t.Errorf("Max = %v, want 7", mx)
	}
}

func TestSeriesSettleTime(t *testing.T) {
	s := NewSeries("cwnd")
	s.Record(ms(0), 2)
	s.Record(ms(10), 8)
	s.Record(ms(20), 32) // overshoot
	s.Record(ms(30), 10) // compensation lands near target
	s.Record(ms(40), 11)

	at, ok := s.SettleTime(10, 1.5)
	if !ok || at != ms(30) {
		t.Fatalf("SettleTime = %v, %v; want 30ms", at, ok)
	}
	if _, ok := s.SettleTime(100, 1); ok {
		t.Fatal("SettleTime for unreachable target reported ok")
	}
	// Re-leaving the band resets the settle point.
	s.Record(ms(50), 50)
	if _, ok := s.SettleTime(10, 1.5); ok {
		t.Fatal("series that left the band again reported settled")
	}
}

func TestSeriesSettleTimeEmpty(t *testing.T) {
	if _, ok := NewSeries("x").SettleTime(1, 1); ok {
		t.Fatal("empty series reported settled")
	}
}

func TestSeriesOvershoot(t *testing.T) {
	s := NewSeries("cwnd")
	s.Record(ms(0), 2)
	s.Record(ms(10), 64)
	s.Record(ms(20), 10)
	amt, at := s.Overshoot(10)
	if amt != 54 || at != ms(10) {
		t.Fatalf("Overshoot = %v at %v; want 54 at 10ms", amt, at)
	}
	// Never exceeding the target yields a non-positive amount.
	amt, _ = s.Overshoot(100)
	if amt > 0 {
		t.Fatalf("Overshoot above max = %v, want <= 0", amt)
	}
	amt, at = NewSeries("e").Overshoot(1)
	if amt != 0 || at != 0 {
		t.Fatalf("empty Overshoot = %v, %v", amt, at)
	}
}

// Property: At(t) always returns the value of the latest sample with
// timestamp <= t, for any monotone sample set.
func TestSeriesAtMatchesLinearScan(t *testing.T) {
	f := func(raw []uint16, probe uint16) bool {
		s := NewSeries("p")
		at := sim.Time(0)
		type sample struct {
			at sim.Time
			v  float64
		}
		var samples []sample
		for i, r := range raw {
			at += sim.Time(r % 97)
			v := float64(i)
			s.Record(at, v)
			samples = append(samples, sample{at, v})
		}
		tq := sim.Time(probe)
		want, wantOK := 0.0, false
		for _, smp := range samples {
			if smp.at <= tq {
				want, wantOK = smp.v, true
			}
		}
		got, ok := s.At(tq)
		if ok != wantOK {
			return false
		}
		return !ok || got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

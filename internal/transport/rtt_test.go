package transport

import (
	"testing"
	"time"
)

func TestRTTFirstSample(t *testing.T) {
	e := NewRTTEstimator(0, 0)
	if e.valid {
		t.Error("Valid before first sample")
	}
	e.Sample(100 * time.Millisecond)
	if !e.valid {
		t.Error("not Valid after sample")
	}
	if e.srtt != 100*time.Millisecond {
		t.Errorf("SRTT = %v, want 100ms", e.srtt)
	}
	// RTO = srtt + 4*rttvar = 100 + 4*50 = 300ms.
	if e.RTO() != 300*time.Millisecond {
		t.Errorf("RTO = %v, want 300ms", e.RTO())
	}
}

func TestRTTSmoothing(t *testing.T) {
	e := NewRTTEstimator(0, 0)
	e.Sample(100 * time.Millisecond)
	e.Sample(200 * time.Millisecond)
	// srtt = 7/8*100 + 1/8*200 = 112.5ms
	want := 112500 * time.Microsecond
	if e.srtt != want {
		t.Errorf("SRTT = %v, want %v", e.srtt, want)
	}
}

func TestRTTIgnoresNonPositive(t *testing.T) {
	e := NewRTTEstimator(0, 0)
	e.Sample(0)
	e.Sample(-time.Second)
	if e.valid {
		t.Error("non-positive samples must be ignored")
	}
}

func TestRTOClampedToMin(t *testing.T) {
	e := NewRTTEstimator(50*time.Millisecond, 0)
	e.Sample(time.Millisecond) // srtt+4var = 3ms << min
	if e.RTO() != 50*time.Millisecond {
		t.Errorf("RTO = %v, want clamped 50ms", e.RTO())
	}
}

func TestRTODefaultBeforeSamples(t *testing.T) {
	e := NewRTTEstimator(10*time.Millisecond, 0)
	if e.RTO() != 100*time.Millisecond {
		t.Errorf("initial RTO = %v, want 10× floor", e.RTO())
	}
}

func TestRTOBackoff(t *testing.T) {
	e := NewRTTEstimator(0, 0)
	e.Sample(100 * time.Millisecond)
	base := e.RTO()
	e.Backoff()
	if e.RTO() != 2*base {
		t.Errorf("after backoff RTO = %v, want %v", e.RTO(), 2*base)
	}
	e.Backoff()
	if e.RTO() != 4*base {
		t.Errorf("after 2nd backoff RTO = %v, want %v", e.RTO(), 4*base)
	}
	e.Sample(100 * time.Millisecond) // backoff resets
	if got := e.RTO(); got > base+base/4 {
		t.Errorf("RTO after new sample = %v, backoff did not reset", got)
	}
}

func TestRTOClampedToMax(t *testing.T) {
	e := NewRTTEstimator(0, 500*time.Millisecond)
	e.Sample(400 * time.Millisecond)
	for i := 0; i < 10; i++ {
		e.Backoff()
	}
	if e.RTO() != 500*time.Millisecond {
		t.Errorf("RTO = %v, want clamped 500ms", e.RTO())
	}
}

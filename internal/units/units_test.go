package units

import (
	"testing"
	"testing/quick"
	"time"
)

func TestDataSizeConversions(t *testing.T) {
	tests := []struct {
		size  DataSize
		bytes int64
		bits  int64
	}{
		{512 * Byte, 512, 4096},
		{Kilobyte, 1000, 8000},
		{2 * Megabyte, 2e6, 16e6},
	}
	for _, tt := range tests {
		if got := tt.size.Bytes(); got != tt.bytes {
			t.Errorf("%v.Bytes() = %d, want %d", tt.size, got, tt.bytes)
		}
		if got := tt.size.Bits(); got != tt.bits {
			t.Errorf("%v.Bits() = %d, want %d", tt.size, got, tt.bits)
		}
	}
}

func TestDataSizeString(t *testing.T) {
	tests := []struct {
		size DataSize
		want string
	}{
		{100 * Byte, "100B"},
		{1500 * Byte, "1.50kB"},
		{2 * Megabyte, "2.00MB"},
		{3 * gigabyte, "3.00GB"},
	}
	for _, tt := range tests {
		if got := tt.size.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestDataRateConstructorsAndString(t *testing.T) {
	if got := Mbps(10).BitsPerSecond(); got != 10_000_000 {
		t.Errorf("Mbps(10) = %d bits/s", got)
	}
	if got := Kbps(64).BitsPerSecond(); got != 64_000 {
		t.Errorf("Kbps(64) = %d bits/s", got)
	}
	if got := Mbps(10).BytesPerSecond(); got != 1.25e6 {
		t.Errorf("BytesPerSecond = %v", got)
	}
	if got := Mbps(10).Mbit(); got != 10 {
		t.Errorf("Mbit = %v", got)
	}
	tests := []struct {
		rate DataRate
		want string
	}{
		{500 * bitPerSecond, "500bit/s"},
		{Kbps(64), "64.00kbit/s"},
		{Mbps(10), "10.00Mbit/s"},
		{2 * gigabitPerSec, "2.00Gbit/s"},
	}
	for _, tt := range tests {
		if got := tt.rate.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestTransmissionTime(t *testing.T) {
	// 512-byte cell over 8 Mbit/s: 4096 bits / 8e6 bit/s = 512 us.
	got := Mbps(8).TransmissionTime(512 * Byte)
	if got != 512*time.Microsecond {
		t.Errorf("cell over 8Mbit/s = %v, want 512µs", got)
	}
	// 1 byte over 1 Gbit/s = 8 ns.
	if got := gigabitPerSec.TransmissionTime(Byte); got != 8*time.Nanosecond {
		t.Errorf("1B over 1Gbit/s = %v, want 8ns", got)
	}
	// Zero size transmits instantly.
	if got := Mbps(1).TransmissionTime(0); got != 0 {
		t.Errorf("0B = %v, want 0", got)
	}
}

func TestTransmissionTimeRoundsUp(t *testing.T) {
	// 1 byte at 3 bit/s = 8/3 s = 2.666...s; must round up, not truncate.
	got := DataRate(3).TransmissionTime(Byte)
	if got <= 2666666666*time.Nanosecond {
		t.Errorf("transmission time %v was truncated", got)
	}
}

func TestTransmissionTimePanicsOnZeroRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on zero rate")
		}
	}()
	DataRate(0).TransmissionTime(Byte)
}

func TestBDP(t *testing.T) {
	// 8 Mbit/s × 100 ms = 800 kbit = 100 kB.
	if got := BDP(Mbps(8), 100*time.Millisecond); got != 100*Kilobyte {
		t.Errorf("BDP = %v, want 100kB", got)
	}
	if got := BDP(Mbps(8), 0); got != 0 {
		t.Errorf("BDP over zero RTT = %v, want 0", got)
	}
}

func TestRateFromTransfer(t *testing.T) {
	// 1 MB in 1 s = 8 Mbit/s.
	if got := RateFromTransfer(Megabyte, time.Second); got != Mbps(8) {
		t.Errorf("RateFromTransfer = %v, want 8Mbit/s", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("no panic on zero duration")
		}
	}()
	RateFromTransfer(Megabyte, 0)
}

// Property: transmitting a size then converting the elapsed time back to
// a rate recovers at least the original rate's worth of data (round-up
// never loses data).
func TestPropertyTransmissionRoundTrip(t *testing.T) {
	f := func(sz uint16, mbps uint8) bool {
		if mbps == 0 {
			return true
		}
		size := DataSize(sz) + 1
		rate := Mbps(float64(mbps))
		d := rate.TransmissionTime(size)
		// Data that could be sent in d at this rate must be >= size.
		sent := DataSize(rate.BytesPerSecond() * d.Seconds())
		return sent >= size-1 // tolerate 1B of float slack
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: BDP is monotone in both rate and RTT.
func TestPropertyBDPMonotone(t *testing.T) {
	f := func(r1, r2 uint8, ms1, ms2 uint8) bool {
		lo, hi := DataRate(r1)*megabitPerSec, DataRate(r2)*megabitPerSec
		if lo > hi {
			lo, hi = hi, lo
		}
		d1, d2 := time.Duration(ms1)*time.Millisecond, time.Duration(ms2)*time.Millisecond
		if d1 > d2 {
			d1, d2 = d2, d1
		}
		return BDP(lo, d1) <= BDP(hi, d2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

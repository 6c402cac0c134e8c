// Package units provides data-size and data-rate types with the
// transmission-time arithmetic the network emulator is built on.
//
// Keeping sizes and rates as distinct types (rather than bare int64 /
// float64) prevents the classic bits-vs-bytes and per-second-vs-per-ms
// unit bugs that plague network simulators.
package units

import (
	"fmt"
	"math"
	"time"
)

// DataSize is an amount of data in bytes.
type DataSize int64

// Data size constants.
const (
	Byte     DataSize = 1
	Kilobyte          = 1000 * Byte
	Kibibyte          = 1024 * Byte
	Megabyte          = 1000 * Kilobyte
	Mebibyte          = 1024 * Kibibyte
	Gigabyte          = 1000 * Megabyte
)

// Bytes returns the size as a raw byte count.
func (s DataSize) Bytes() int64 { return int64(s) }

// Bits returns the size in bits.
func (s DataSize) Bits() int64 { return int64(s) * 8 }

// Kilobytes returns the size in kB (1000 bytes), as used for the paper's
// cwnd axis ("source cwnd [KB]").
func (s DataSize) Kilobytes() float64 { return float64(s) / 1000 }

func (s DataSize) String() string {
	switch {
	case s >= Gigabyte:
		return fmt.Sprintf("%.2fGB", float64(s)/float64(Gigabyte))
	case s >= Megabyte:
		return fmt.Sprintf("%.2fMB", float64(s)/float64(Megabyte))
	case s >= Kilobyte:
		return fmt.Sprintf("%.2fkB", float64(s)/float64(Kilobyte))
	default:
		return fmt.Sprintf("%dB", int64(s))
	}
}

// DataRate is a transmission rate in bits per second.
type DataRate int64

// Data rate constants.
const (
	BitPerSecond  DataRate = 1
	KilobitPerSec          = 1000 * BitPerSecond
	MegabitPerSec          = 1000 * KilobitPerSec
	GigabitPerSec          = 1000 * MegabitPerSec
)

// Mbps constructs a rate from megabits per second.
func Mbps(v float64) DataRate { return DataRate(v * float64(MegabitPerSec)) }

// Kbps constructs a rate from kilobits per second.
func Kbps(v float64) DataRate { return DataRate(v * float64(KilobitPerSec)) }

// BitsPerSecond returns the raw rate.
func (r DataRate) BitsPerSecond() int64 { return int64(r) }

// BytesPerSecond returns the rate in bytes per second.
func (r DataRate) BytesPerSecond() float64 { return float64(r) / 8 }

// Mbit returns the rate in Mbit/s.
func (r DataRate) Mbit() float64 { return float64(r) / float64(MegabitPerSec) }

func (r DataRate) String() string {
	switch {
	case r >= GigabitPerSec:
		return fmt.Sprintf("%.2fGbit/s", float64(r)/float64(GigabitPerSec))
	case r >= MegabitPerSec:
		return fmt.Sprintf("%.2fMbit/s", float64(r)/float64(MegabitPerSec))
	case r >= KilobitPerSec:
		return fmt.Sprintf("%.2fkbit/s", float64(r)/float64(KilobitPerSec))
	default:
		return fmt.Sprintf("%dbit/s", int64(r))
	}
}

// TransmissionTime returns how long it takes to serialize s onto a link
// of rate r. It panics on a non-positive rate: a zero-rate link is a
// configuration error, not a runtime condition.
func (r DataRate) TransmissionTime(s DataSize) time.Duration {
	if r <= 0 {
		panic(fmt.Sprintf("units: transmission time over non-positive rate %v", r))
	}
	bits := float64(s.Bits())
	seconds := bits / float64(r)
	// Round up to the nanosecond so that back-to-back transmissions
	// never overlap due to truncation.
	return time.Duration(math.Ceil(seconds * float64(time.Second)))
}

// BDP returns the bandwidth-delay product of rate r over round-trip time
// rtt, i.e. the amount of data needed in flight to keep a path of this
// rate and RTT fully utilized. This is the quantity CircuitStart's
// optimal-window model is built on.
func BDP(r DataRate, rtt time.Duration) DataSize {
	bits := float64(r) * rtt.Seconds()
	return DataSize(math.Ceil(bits / 8))
}

// RateFromTransfer returns the average rate achieved by moving s in d.
func RateFromTransfer(s DataSize, d time.Duration) DataRate {
	if d <= 0 {
		panic("units: rate over non-positive duration")
	}
	return DataRate(float64(s.Bits()) / d.Seconds())
}

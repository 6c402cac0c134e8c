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
	// Byte is one byte. Test-only: endpoint's TestSinkCountsAndCompletes
	// and core's TestTransferSurvivesTinyQueues size transfers in it.
	Byte     DataSize = 1
	Kilobyte          = 1000 * Byte
	Megabyte          = 1000 * Kilobyte
	gigabyte          = 1000 * Megabyte
)

// Bytes returns the size as a raw byte count.
func (s DataSize) Bytes() int64 { return int64(s) }

// Bits returns the size in bits. Test-only: model's TestLowerBoundTTLB
// computes serialization times with it.
func (s DataSize) Bits() int64 { return int64(s) * 8 }

func (s DataSize) String() string {
	switch {
	case s >= gigabyte:
		return fmt.Sprintf("%.2fGB", float64(s)/float64(gigabyte))
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
	bitPerSecond  DataRate = 1
	kilobitPerSec          = 1000 * bitPerSecond
	megabitPerSec          = 1000 * kilobitPerSec
	gigabitPerSec          = 1000 * megabitPerSec
)

// Mbps constructs a rate from megabits per second.
func Mbps(v float64) DataRate { return DataRate(v * float64(megabitPerSec)) }

// Kbps constructs a rate from kilobits per second. Test-only: netem's
// TestLinkSetRateMidSerializationAppliesNext builds slow links with it.
func Kbps(v float64) DataRate { return DataRate(v * float64(kilobitPerSec)) }

// BitsPerSecond returns the raw rate.
func (r DataRate) BitsPerSecond() int64 { return int64(r) }

// BytesPerSecond returns the rate in bytes per second.
func (r DataRate) BytesPerSecond() float64 { return float64(r) / 8 }

// Mbit returns the rate in Mbit/s. Test-only: netem's
// TestLinkThroughputMatchesRate and experiments'
// TestAblationSharedBottleneck read measured rates with it.
func (r DataRate) Mbit() float64 { return float64(r) / float64(megabitPerSec) }

func (r DataRate) String() string {
	switch {
	case r >= gigabitPerSec:
		return fmt.Sprintf("%.2fGbit/s", float64(r)/float64(gigabitPerSec))
	case r >= megabitPerSec:
		return fmt.Sprintf("%.2fMbit/s", float64(r)/float64(megabitPerSec))
	case r >= kilobitPerSec:
		return fmt.Sprintf("%.2fkbit/s", float64(r)/float64(kilobitPerSec))
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
// optimal-window model is built on. Test-only: transport's
// TestVegasAvoidanceConvergesNearOptimal compares windows against it.
func BDP(r DataRate, rtt time.Duration) DataSize {
	bits := float64(r) * rtt.Seconds()
	return DataSize(math.Ceil(bits / 8))
}

// RateFromTransfer returns the average rate achieved by moving s in d.
// Test-only: netem's TestLinkThroughputMatchesRate and transport's
// TestThroughputUnderBottleneckMatchesRate measure with it.
func RateFromTransfer(s DataSize, d time.Duration) DataRate {
	if d <= 0 {
		panic("units: rate over non-positive duration")
	}
	return DataRate(float64(s.Bits()) / d.Seconds())
}

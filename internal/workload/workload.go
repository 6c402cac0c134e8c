// Package workload generates the synthetic inputs of the paper's
// aggregate experiment, "a randomly generated network of Tor relays,
// connected in a star topology": the relay population, the routed
// backbones it can sit behind instead of the star, and transfer-size
// distributions. Package scenario decides from them which relays,
// paths and endpoints a trial has.
//
// Live Tor consensus data is replaced by seeded synthetic distributions
// (log-normal relay bandwidth, uniform access latency), which preserve
// the property the experiment depends on — heterogeneous relays so that
// bottleneck depth and position vary across circuits. See DESIGN.md's
// substitution table.
package workload

import (
	"fmt"
	"time"

	"circuitstart/internal/directory"
	"circuitstart/internal/netem"
	"circuitstart/internal/sim"
	"circuitstart/internal/units"
)

// RelayParams shapes the synthetic relay population.
type RelayParams struct {
	// N is the number of relays.
	N int
	// BandwidthMedian is the median relay access rate. Relay bandwidth
	// is log-normally distributed around it.
	BandwidthMedian units.DataRate
	// BandwidthSigma is the log-normal scale (0 = default 0.6, a
	// moderately heavy tail).
	BandwidthSigma float64
	// MinBandwidth, MaxBandwidth clamp the samples.
	MinBandwidth, MaxBandwidth units.DataRate
	// DelayMin, DelayMax bound the uniform access propagation delay.
	DelayMin, DelayMax time.Duration
	// QueueCap bounds each relay's access-link queues (0 = unbounded).
	QueueCap units.DataSize
	// GuardFrac and ExitFrac select which prefix/suffix of the relay
	// population additionally holds the Guard/Exit flag (every relay is
	// Middle-capable). Defaults: 0.4 each. Each flag goes to at least
	// one relay.
	GuardFrac, ExitFrac float64
}

// DefaultRelayParams returns a Tor-flavoured population: median 20
// Mbit/s with a heavy tail, 2–20 ms access delay, 512 kB queues.
func DefaultRelayParams(n int) RelayParams {
	return RelayParams{
		N:               n,
		BandwidthMedian: units.Mbps(20),
		BandwidthSigma:  0.6,
		MinBandwidth:    units.Mbps(2),
		MaxBandwidth:    units.Mbps(400),
		DelayMin:        2 * time.Millisecond,
		DelayMax:        20 * time.Millisecond,
		QueueCap:        512 * units.Kilobyte,
		GuardFrac:       0.4,
		ExitFrac:        0.4,
	}
}

// Relay is one generated relay: its consensus descriptor plus the
// access configuration used to attach it to the star.
type Relay struct {
	Desc   directory.Descriptor
	Access netem.AccessConfig
}

// RelayID returns the deterministic node ID of generated relay i —
// the single source of the population's naming scheme, used by
// everything that must refer to a generated relay before the
// population exists (e.g. scenario relay-event validation).
func RelayID(i int) netem.NodeID {
	return netem.NodeID(fmt.Sprintf("relay-%03d", i))
}

// GenerateRelays samples a relay population from params using the
// network's seed (stream "workload-relays").
func GenerateRelays(seed int64, params RelayParams) ([]Relay, error) {
	if params.N <= 0 {
		return nil, fmt.Errorf("workload: %d relays", params.N)
	}
	if params.BandwidthMedian <= 0 {
		return nil, fmt.Errorf("workload: non-positive median bandwidth")
	}
	sigma := params.BandwidthSigma
	if sigma == 0 {
		sigma = 0.6
	}
	if params.DelayMin < 0 || params.DelayMax < params.DelayMin {
		return nil, fmt.Errorf("workload: invalid delay range [%v, %v]", params.DelayMin, params.DelayMax)
	}
	guards := params.GuardFrac
	if guards == 0 {
		guards = 0.4
	}
	exits := params.ExitFrac
	if exits == 0 {
		exits = 0.4
	}
	if guards < 0 || guards > 1 || exits < 0 || exits > 1 {
		return nil, fmt.Errorf("workload: flag fractions outside [0,1]")
	}

	rng := sim.NewRNG(seed, "workload-relays")
	relays := make([]Relay, params.N)
	// At least one relay holds each flag, so a population too small for
	// the fractions to reach one relay (N ≤ 2 by default) still has a
	// guard and an exit.
	nGuard := max(1, int(guards*float64(params.N)))
	nExit := max(1, int(exits*float64(params.N)))
	for i := range relays {
		bw := units.DataRate(rng.LogNormal(0, sigma) * float64(params.BandwidthMedian))
		if params.MinBandwidth > 0 && bw < params.MinBandwidth {
			bw = params.MinBandwidth
		}
		if params.MaxBandwidth > 0 && bw > params.MaxBandwidth {
			bw = params.MaxBandwidth
		}
		delay := params.DelayMin
		if params.DelayMax > params.DelayMin {
			delay += time.Duration(rng.Int63n(int64(params.DelayMax - params.DelayMin)))
		}
		flags := directory.FlagMiddle
		if i < nGuard {
			flags |= directory.FlagGuard
		}
		if i >= params.N-nExit {
			flags |= directory.FlagExit
		}
		id := RelayID(i)
		relays[i] = Relay{
			Desc: directory.Descriptor{
				ID: id, Bandwidth: bw, Latency: delay, Flags: flags,
			},
			Access: netem.AccessConfig{
				UpRate: bw, DownRate: bw, Delay: delay, QueueCap: params.QueueCap,
			},
		}
	}
	return relays, nil
}

package faults

import (
	"fmt"
	"time"

	"circuitstart/internal/netem"
	"circuitstart/internal/relay"
	"circuitstart/internal/sim"
	"circuitstart/internal/units"
)

// Network is the slice of the simulation the injector needs: the trial
// clock to schedule on, relays to degrade, and the fabric whose links it
// conditions. core.Network satisfies it; tests can stub it.
type Network interface {
	Clock() *sim.Clock
	Relay(id netem.NodeID) *relay.Relay
	Fabric() netem.Fabric
}

// Injector is an installed fault plan: every episode is compiled onto
// the trial clock, and the set of currently-faulted relays is tracked so
// recovery path selection can route around live failures.
type Injector struct {
	// suspect refcounts relays currently inside a fault episode (down,
	// hung, or slowed). Overlapping episodes on one relay nest.
	suspect map[netem.NodeID]int
}

// Install compiles the plan onto n's clock. Call it after the topology
// is built (relays attached, trunks wired) and before RunUntil; episodes
// whose start instant is not in the future take effect immediately.
// seed is the trial seed — each fault entry derives its own named RNG
// streams from it, so draws never cross between entries.
//
// The plan must have passed Validate against this topology; Install
// panics on targets the topology does not have.
func Install(n Network, p Plan, seed int64) *Injector {
	inj := &Injector{suspect: make(map[netem.NodeID]int)}
	clock := n.Clock()
	at := func(t sim.Time, fn func()) {
		if t.After(clock.Now()) {
			clock.At(t, fn)
			return
		}
		fn()
	}
	links := func(id netem.NodeID) (up, down *netem.Link) {
		r := n.Relay(id)
		if r == nil {
			panic(fmt.Sprintf("faults: plan targets unknown relay %q", id))
		}
		port := r.Port()
		return port.Uplink(), port.Downlink()
	}

	for i, b := range p.BurstLoss {
		up, down := links(b.Relay)
		mUp := &netem.GilbertElliott{
			PGoodBad: b.PGoodBad, PBadGood: b.PBadGood,
			LossGood: b.LossGood, LossBad: b.LossBad,
			RNG: sim.NewRNG(seed, fmt.Sprintf("fault-burstloss/%d/up", i)),
		}
		mDown := &netem.GilbertElliott{
			PGoodBad: b.PGoodBad, PBadGood: b.PBadGood,
			LossGood: b.LossGood, LossBad: b.LossBad,
			RNG: sim.NewRNG(seed, fmt.Sprintf("fault-burstloss/%d/down", i)),
		}
		at(b.From, func() {
			up.SetLossModel(mUp)
			down.SetLossModel(mDown)
		})
		if b.Until != 0 {
			at(b.Until, func() {
				up.SetLossModel(nil)
				down.SetLossModel(nil)
			})
		}
	}

	for i, j := range p.Jitter {
		up, down := links(j.Relay)
		mUp := &netem.UniformJitter{
			Amplitude: j.Amplitude, SpikeProb: j.SpikeProb, SpikeDelay: j.SpikeDelay,
			RNG: sim.NewRNG(seed, fmt.Sprintf("fault-jitter/%d/up", i)),
		}
		mDown := &netem.UniformJitter{
			Amplitude: j.Amplitude, SpikeProb: j.SpikeProb, SpikeDelay: j.SpikeDelay,
			RNG: sim.NewRNG(seed, fmt.Sprintf("fault-jitter/%d/down", i)),
		}
		at(j.From, func() {
			up.SetJitter(mUp)
			down.SetJitter(mDown)
		})
		if j.Until != 0 {
			at(j.Until, func() {
				up.SetJitter(nil)
				down.SetJitter(nil)
			})
		}
	}

	for _, f := range p.Flaps {
		f := f
		up, down := links(f.Relay)
		for i := 0; i <= f.Repeat; i++ {
			downAt := f.DownAt.Add(time.Duration(i) * f.Every)
			at(downAt, func() {
				up.SetDown(true)
				down.SetDown(true)
				inj.suspect[f.Relay]++
			})
			at(downAt.Add(f.UpAfter), func() {
				up.SetDown(false)
				down.SetDown(false)
				inj.suspect[f.Relay]--
			})
		}
	}

	if len(p.Partitions) > 0 {
		gf := n.Fabric().(*netem.GraphFabric)
		for _, pt := range p.Partitions {
			ab, ba := gf.Trunk(pt.TrunkA, pt.TrunkB), gf.Trunk(pt.TrunkB, pt.TrunkA)
			if ab == nil || ba == nil {
				panic(fmt.Sprintf("faults: plan partitions unknown trunk %q-%q", pt.TrunkA, pt.TrunkB))
			}
			at(pt.At, func() {
				ab.SetDown(true)
				ba.SetDown(true)
			})
			if pt.HealAfter > 0 {
				at(pt.At.Add(pt.HealAfter), func() {
					ab.SetDown(false)
					ba.SetDown(false)
				})
			}
		}
	}

	for _, d := range p.Degrades {
		d := d
		switch d.Mode {
		case DegradeHang:
			r := n.Relay(d.Relay)
			if r == nil {
				panic(fmt.Sprintf("faults: plan targets unknown relay %q", d.Relay))
			}
			at(d.At, func() {
				r.Hang()
				inj.suspect[d.Relay]++
			})
			if d.RecoverAfter > 0 {
				at(d.At.Add(d.RecoverAfter), func() {
					r.Unhang()
					inj.suspect[d.Relay]--
				})
			}
		case DegradeSlow:
			up, down := links(d.Relay)
			at(d.At, func() {
				up.SetRate(units.DataRate(float64(up.Config().Rate) * d.RateFactor))
				down.SetRate(units.DataRate(float64(down.Config().Rate) * d.RateFactor))
				inj.suspect[d.Relay]++
			})
			if d.RecoverAfter > 0 {
				at(d.At.Add(d.RecoverAfter), func() {
					// Divide the live rate rather than restoring a snapshot
					// so a LinkEvent rate change during the episode survives.
					up.SetRate(units.DataRate(float64(up.Config().Rate) / d.RateFactor))
					down.SetRate(units.DataRate(float64(down.Config().Rate) / d.RateFactor))
					inj.suspect[d.Relay]--
				})
			}
		}
	}
	return inj
}

// ExcludedWith merges the currently-suspected relays into base, the
// caller's own exclusion set, and returns the union. When nothing is
// suspected it returns base itself, untouched — the no-fault path does
// no extra work and observes later mutations of base as before.
func (inj *Injector) ExcludedWith(base map[netem.NodeID]bool) map[netem.NodeID]bool {
	if inj == nil {
		return base
	}
	n := 0
	for _, c := range inj.suspect {
		if c > 0 {
			n++
		}
	}
	if n == 0 {
		return base
	}
	m := make(map[netem.NodeID]bool, len(base)+n)
	for id, bad := range base {
		if bad {
			m[id] = true
		}
	}
	for id, c := range inj.suspect {
		if c > 0 {
			m[id] = true
		}
	}
	return m
}

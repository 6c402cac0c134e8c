package faults

import (
	"fmt"
	"time"

	"circuitstart/internal/netem"
	"circuitstart/internal/relay"
	"circuitstart/internal/sim"
	"circuitstart/internal/units"
)

// ShardedNetwork is the slice of a sharded simulation the injector
// needs. There is no single trial clock: every fault episode must
// schedule on the clock of the shard owning its target — a relay's
// access links live on the relay's shard, each trunk direction on the
// shard owning its source switch. core.ShardedNetwork satisfies it.
type ShardedNetwork interface {
	Relay(id netem.NodeID) *relay.Relay
	RelayClock(id netem.NodeID) *sim.Clock
	Trunk(a, b netem.SwitchID) *netem.Link
	TrunkClock(a, b netem.SwitchID) *sim.Clock
}

// InstallSharded compiles the plan onto a sharded trial. It mirrors
// Install episode for episode — identical named RNG streams, identical
// instants — so a faulted trial is byte-identical at every shard count;
// the only difference is that each episode lands on its target's shard
// clock and fires mid-window there, shard-locally.
//
// The returned Injector tracks no suspects: episode callbacks run on
// shard goroutines concurrently, so a shared refcount map would race.
// Suspect-driven recovery (Plan.Recovery) is rejected by sharded
// scenario validation for exactly this reason.
func InstallSharded(n ShardedNetwork, p Plan, seed int64) *Injector {
	inj := &Injector{}
	at := func(clk *sim.Clock, t sim.Time, fn func()) {
		if t.After(clk.Now()) {
			clk.At(t, fn)
			return
		}
		fn()
	}
	links := func(id netem.NodeID) (clk *sim.Clock, up, down *netem.Link) {
		r := n.Relay(id)
		clk = n.RelayClock(id)
		if r == nil || clk == nil {
			panic(fmt.Sprintf("faults: plan targets unknown relay %q", id))
		}
		port := r.Port()
		return clk, port.Uplink(), port.Downlink()
	}

	for i, b := range p.BurstLoss {
		clk, up, down := links(b.Relay)
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
		at(clk, b.From, func() {
			up.SetLossModel(mUp)
			down.SetLossModel(mDown)
		})
		if b.Until != 0 {
			at(clk, b.Until, func() {
				up.SetLossModel(nil)
				down.SetLossModel(nil)
			})
		}
	}

	for i, j := range p.Jitter {
		clk, up, down := links(j.Relay)
		mUp := &netem.UniformJitter{
			Amplitude: j.Amplitude, SpikeProb: j.SpikeProb, SpikeDelay: j.SpikeDelay,
			RNG: sim.NewRNG(seed, fmt.Sprintf("fault-jitter/%d/up", i)),
		}
		mDown := &netem.UniformJitter{
			Amplitude: j.Amplitude, SpikeProb: j.SpikeProb, SpikeDelay: j.SpikeDelay,
			RNG: sim.NewRNG(seed, fmt.Sprintf("fault-jitter/%d/down", i)),
		}
		at(clk, j.From, func() {
			up.SetJitter(mUp)
			down.SetJitter(mDown)
		})
		if j.Until != 0 {
			at(clk, j.Until, func() {
				up.SetJitter(nil)
				down.SetJitter(nil)
			})
		}
	}

	for _, f := range p.Flaps {
		clk, up, down := links(f.Relay)
		for i := 0; i <= f.Repeat; i++ {
			downAt := f.DownAt.Add(time.Duration(i) * f.Every)
			at(clk, downAt, func() {
				up.SetDown(true)
				down.SetDown(true)
			})
			at(clk, downAt.Add(f.UpAfter), func() {
				up.SetDown(false)
				down.SetDown(false)
			})
		}
	}

	for _, pt := range p.Partitions {
		// The two directions of a cut trunk live on different shards;
		// each direction goes down on its owner's clock at the same
		// virtual instant.
		ab, ba := n.Trunk(pt.TrunkA, pt.TrunkB), n.Trunk(pt.TrunkB, pt.TrunkA)
		if ab == nil || ba == nil {
			panic(fmt.Sprintf("faults: plan partitions unknown trunk %q-%q", pt.TrunkA, pt.TrunkB))
		}
		clkAB := n.TrunkClock(pt.TrunkA, pt.TrunkB)
		clkBA := n.TrunkClock(pt.TrunkB, pt.TrunkA)
		at(clkAB, pt.At, func() { ab.SetDown(true) })
		at(clkBA, pt.At, func() { ba.SetDown(true) })
		if pt.HealAfter > 0 {
			at(clkAB, pt.At.Add(pt.HealAfter), func() { ab.SetDown(false) })
			at(clkBA, pt.At.Add(pt.HealAfter), func() { ba.SetDown(false) })
		}
	}

	for _, d := range p.Degrades {
		d := d
		switch d.Mode {
		case DegradeHang:
			r := n.Relay(d.Relay)
			clk := n.RelayClock(d.Relay)
			if r == nil || clk == nil {
				panic(fmt.Sprintf("faults: plan targets unknown relay %q", d.Relay))
			}
			at(clk, d.At, func() { r.Hang() })
			if d.RecoverAfter > 0 {
				at(clk, d.At.Add(d.RecoverAfter), func() { r.Unhang() })
			}
		case DegradeSlow:
			clk, up, down := links(d.Relay)
			at(clk, d.At, func() {
				up.SetRate(units.DataRate(float64(up.Config().Rate) * d.RateFactor))
				down.SetRate(units.DataRate(float64(down.Config().Rate) * d.RateFactor))
			})
			if d.RecoverAfter > 0 {
				at(clk, d.At.Add(d.RecoverAfter), func() {
					up.SetRate(units.DataRate(float64(up.Config().Rate) / d.RateFactor))
					down.SetRate(units.DataRate(float64(down.Config().Rate) / d.RateFactor))
				})
			}
		}
	}
	return inj
}

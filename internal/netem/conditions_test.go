package netem

import (
	"strings"
	"testing"
	"time"

	"circuitstart/internal/sim"
	"circuitstart/internal/units"
)

// TestGilbertElliottBurstiness pins the defining property of the
// two-state channel: with the same marginal loss rate, drops cluster
// into bursts rather than arriving i.i.d. A sticky bad state
// (PBadGood small) must yield long runs of consecutive drops.
func TestGilbertElliottBurstiness(t *testing.T) {
	g := &GilbertElliott{
		PGoodBad: 0.01, PBadGood: 0.05,
		LossGood: 0, LossBad: 0.9,
		RNG: sim.NewRNG(7, "ge-burst"),
	}
	const frames = 20000
	drops, run, maxRun := 0, 0, 0
	for i := 0; i < frames; i++ {
		if g.Drop() {
			drops++
			run++
			if run > maxRun {
				maxRun = run
			}
		} else {
			run = 0
		}
	}
	if drops == 0 || drops == frames {
		t.Fatalf("degenerate channel: %d/%d drops", drops, frames)
	}
	// Mean bad-state sojourn is 1/PBadGood = 20 frames at 90% loss;
	// i.i.d. loss at the same marginal rate would make a run of 8
	// vanishingly rare, while bursts reach it routinely.
	if maxRun < 8 {
		t.Fatalf("longest drop burst %d frames — channel is not bursty", maxRun)
	}
}

// TestGilbertElliottDeterministicDraws checks the fixed two-draws-per-
// frame contract: two models on identical streams stay in lockstep
// regardless of state, so stream consumption is a pure function of the
// frame count.
func TestGilbertElliottDeterministicDraws(t *testing.T) {
	mk := func() *GilbertElliott {
		return &GilbertElliott{
			PGoodBad: 0.05, PBadGood: 0.1, LossBad: 0.7,
			RNG: sim.NewRNG(42, "ge-det"),
		}
	}
	a, b := mk(), mk()
	for i := 0; i < 5000; i++ {
		da, db := a.Drop(), b.Drop()
		if da != db || a.bad != b.bad {
			t.Fatalf("frame %d: divergent replicas (%v/%v, bad %v/%v)", i, da, db, a.bad, b.bad)
		}
	}
}

func TestUniformJitterBounds(t *testing.T) {
	j := &UniformJitter{
		Amplitude:  5 * time.Millisecond,
		SpikeProb:  0.1,
		SpikeDelay: 50 * time.Millisecond,
		RNG:        sim.NewRNG(3, "jit-bounds"),
	}
	spikes := 0
	for i := 0; i < 10000; i++ {
		d := j.Extra()
		if d < 0 || d >= 55*time.Millisecond {
			t.Fatalf("draw %d: extra delay %v outside [0, amplitude+spike)", i, d)
		}
		if d >= 5*time.Millisecond {
			spikes++
		}
	}
	if spikes == 0 {
		t.Fatal("no spikes in 10k draws at 10% spike probability")
	}
}

func TestLinkSetDownDropsFrames(t *testing.T) {
	clock, link, dst := newTestLink(t, LinkConfig{Rate: units.Mbps(8), Delay: time.Millisecond})
	link.Send(&Frame{Src: "a", Dst: "b", Size: 512})
	clock.Run()
	link.SetDown(true)
	if !link.down {
		t.Fatal("link not reported down")
	}
	for i := 0; i < 3; i++ {
		link.Send(&Frame{Src: "a", Dst: "b", Size: 512})
	}
	clock.Run()
	link.SetDown(false)
	link.Send(&Frame{Src: "a", Dst: "b", Size: 512})
	clock.Run()
	if len(dst.frames) != 2 {
		t.Fatalf("delivered %d frames, want 2 (down-window frames dropped)", len(dst.frames))
	}
	if got := link.Stats().DownDrops; got != 3 {
		t.Fatalf("DownDrops = %d, want 3", got)
	}
}

// TestLinkJitterPreservesFIFO drives a link with violent jitter (spikes
// far exceeding inter-frame spacing) and checks the monotone-delivery
// clamp: frames still arrive in send order, and the discipline survives
// removing the model mid-stream (the clamp keeps applying to frames
// scheduled behind a delayed predecessor).
func TestLinkJitterPreservesFIFO(t *testing.T) {
	clock, link, dst := newTestLink(t, LinkConfig{Rate: units.Mbps(100), Delay: time.Millisecond})
	link.SetJitter(&UniformJitter{
		Amplitude:  10 * time.Millisecond,
		SpikeProb:  0.3,
		SpikeDelay: 80 * time.Millisecond,
		RNG:        sim.NewRNG(11, "jit-fifo"),
	})
	for i := 0; i < 25; i++ {
		link.Send(&Frame{Src: "a", Dst: "b", Size: 512, Payload: i})
	}
	clock.RunUntil(sim.Time(2 * time.Millisecond))
	link.SetJitter(nil)
	for i := 25; i < 50; i++ {
		link.Send(&Frame{Src: "a", Dst: "b", Size: 512, Payload: i})
	}
	clock.Run()
	if len(dst.frames) != 50 {
		t.Fatalf("delivered %d frames, want 50", len(dst.frames))
	}
	for i, f := range dst.frames {
		if f.Payload.(int) != i {
			t.Fatalf("frame %d carries payload %v: FIFO violated under jitter", i, f.Payload)
		}
	}
	for i := 1; i < len(dst.times); i++ {
		if dst.times[i].Before(dst.times[i-1]) {
			t.Fatalf("delivery %d at %v before predecessor at %v", i, dst.times[i], dst.times[i-1])
		}
	}
}

func TestLinkLossModelDrops(t *testing.T) {
	clock, link, dst := newTestLink(t, LinkConfig{Rate: units.Mbps(100), Delay: time.Millisecond})
	// Always-bad channel with certain loss: every frame drops.
	link.SetLossModel(&GilbertElliott{
		PGoodBad: 1, PBadGood: 0, LossGood: 1, LossBad: 1,
		RNG: sim.NewRNG(5, "ge-drop"),
	})
	for i := 0; i < 4; i++ {
		link.Send(&Frame{Src: "a", Dst: "b", Size: 512})
	}
	clock.Run()
	if len(dst.frames) != 0 {
		t.Fatalf("%d frames survived a certain-loss model", len(dst.frames))
	}
	link.SetLossModel(nil)
	link.Send(&Frame{Src: "a", Dst: "b", Size: 512})
	clock.Run()
	if len(dst.frames) != 1 {
		t.Fatalf("delivered %d after removing the model, want 1", len(dst.frames))
	}
}

func TestAccessConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  AccessConfig
		want string
	}{
		{"zero up", AccessConfig{DownRate: units.Mbps(1)}, "up rate"},
		{"zero down", AccessConfig{UpRate: units.Mbps(1)}, "down rate"},
		{"negative delay", AccessConfig{UpRate: units.Mbps(1), DownRate: units.Mbps(1), Delay: -time.Second}, "delay"},
		{"bad loss", AccessConfig{UpRate: units.Mbps(1), DownRate: units.Mbps(1), LossProb: 1.5}, "loss probability"},
		{"negative train", AccessConfig{UpRate: units.Mbps(1), DownRate: units.Mbps(1), TrainSize: -1}, "train size"},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
	if err := Symmetric(units.Mbps(10), time.Millisecond, 0).Validate(); err != nil {
		t.Fatal(err)
	}
}

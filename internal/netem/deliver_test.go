package netem

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"circuitstart/internal/sim"
	"circuitstart/internal/units"
)

// The delivery fixtures share one geometry: a 512 B frame serializes in
// 512 µs at 8 Mbit/s and propagates for twenty times that, so a backlog
// puts many trains in propagation at once and every event of an
// unjittered case lands on the 512 µs grid.
const (
	fixtureTick  = 512 * time.Microsecond
	fixtureDelay = 20 * fixtureTick
)

// scriptedLoss drops the frames whose position in the serialization
// order is listed.
type scriptedLoss struct {
	drop map[int]bool
	n    int
}

func (s *scriptedLoss) Drop() bool {
	s.n++
	return s.drop[s.n-1]
}

// scriptedJitter replays a fixed list of extra delays, then zeros.
type scriptedJitter struct {
	extra []time.Duration
	n     int
}

func (s *scriptedJitter) Extra() time.Duration {
	s.n++
	if s.n <= len(s.extra) {
		return s.extra[s.n-1]
	}
	return 0
}

// deliveryCase is one scenario of the fixture: a link configuration and
// a script that sends frames and flips fault switches.
type deliveryCase struct {
	name   string
	cfg    LinkConfig
	script func(clock *sim.Clock, link *Link, send func(n int))
}

var deliveryCases = []deliveryCase{
	{"train-0", LinkConfig{TrainSize: 0}, backlogThenTrickle},
	{"train-1", LinkConfig{TrainSize: 1}, backlogThenTrickle},
	{"train-8", LinkConfig{TrainSize: 8}, backlogThenTrickle},
	{"jitter-spikes", LinkConfig{}, func(clock *sim.Clock, link *Link, send func(int)) {
		link.SetJitter(&UniformJitter{
			Amplitude: 2 * time.Millisecond, SpikeProb: 0.3, SpikeDelay: 6 * time.Millisecond,
			RNG: sim.NewRNG(11, "deliver-jitter"),
		})
		send(24)
	}},
	{"lost-train-between-survivors", LinkConfig{TrainSize: 4}, func(clock *sim.Clock, link *Link, send func(int)) {
		link.SetLossModel(&scriptedLoss{drop: map[int]bool{4: true, 5: true, 6: true, 7: true, 9: true}})
		send(12)
	}},
	{"setdown-mid-flight", LinkConfig{}, func(clock *sim.Clock, link *Link, send func(int)) {
		send(12)
		clock.At(sim.Time(3*fixtureTick+fixtureTick/2), func() { link.SetDown(true) })
		clock.At(sim.Time(7*fixtureTick+fixtureTick/2), func() { link.SetDown(false) })
	}},
	{"stretched-train", LinkConfig{TrainSize: 8}, func(clock *sim.Clock, link *Link, send func(int)) {
		// Arrivals a little faster than service: each finds a train with
		// room in the serializer and joins it.
		for i := 0; i < 16; i++ {
			clock.At(sim.Time(i)*sim.Time(fixtureTick*3/4), func() { send(1) })
		}
	}},
	{"jitter-removed-behind-spike", LinkConfig{}, func(clock *sim.Clock, link *Link, send func(int)) {
		link.SetJitter(&scriptedJitter{extra: []time.Duration{0, 16 * fixtureTick, 2 * fixtureTick}})
		send(4)
		clock.At(sim.Time(2*fixtureTick+fixtureTick/2), func() { link.SetJitter(nil) })
		clock.At(sim.Time(6*fixtureTick), func() { send(4) })
	}},
}

func backlogThenTrickle(clock *sim.Clock, link *Link, send func(n int)) {
	send(12)
	for i := 0; i < 4; i++ {
		clock.At(sim.Time(14+2*i)*sim.Time(fixtureTick), func() { send(1) })
	}
}

// deliveryTrace runs one case and renders what the rest of the
// simulation can observe of it: every delivery with its instant and
// members, in firing order among two families of bystander events that
// share the deliveries' instants — "early" markers scheduled up front
// (they precede a same-instant delivery) and a "tick" chain scheduled
// one tick ahead (it follows one) — then the link's counters.
func deliveryTrace(tc deliveryCase) string {
	clock := sim.NewClock()
	dst := &trainSink{clock: clock}
	cfg := tc.cfg
	cfg.Rate, cfg.Delay = units.Mbps(8), fixtureDelay
	link := NewLink(tc.name, clock, cfg, dst)

	type line struct {
		at   sim.Time
		what string
	}
	var lines []line
	const horizon = sim.Time(80 * fixtureTick)
	early := func() { lines = append(lines, line{clock.Now(), "early"}) }
	for at := sim.Time(fixtureTick); at <= horizon; at += sim.Time(fixtureTick) {
		clock.At(at, early)
	}
	var tick func()
	tick = func() {
		lines = append(lines, line{clock.Now(), "tick"})
		if clock.Now() < horizon {
			clock.After(fixtureTick, tick)
		}
	}
	clock.After(fixtureTick, tick)

	next := 0
	send := func(n int) {
		for ; n > 0; n-- {
			link.Send(&Frame{Src: "a", Dst: "b", Size: 512, Payload: next})
			next++
		}
	}
	tc.script(clock, link, send)

	delivered := map[sim.Time]bool{}
	for seen := 0; clock.Step(); {
		for ; seen < len(dst.batches); seen++ {
			what := "deliver"
			for _, f := range dst.batches[seen] {
				what += fmt.Sprintf(" %d", f.Payload.(int))
			}
			lines = append(lines, line{dst.times[seen], what})
			delivered[dst.times[seen]] = true
		}
	}

	// Bystanders only carry information at instants that saw a delivery.
	var out strings.Builder
	fmt.Fprintf(&out, "== %s\n", tc.name)
	for _, l := range lines {
		if delivered[l.at] {
			fmt.Fprintf(&out, "%v %s\n", l.at, l.what)
		}
	}
	fmt.Fprintf(&out, "%+v\n", link.Stats())
	return out.String()
}

// TestLinkDeliveryFixture pins delivery instants, batch boundaries,
// firing order among same-instant bystanders and LinkStats to
// testdata/link_delivery.golden, recorded from the engine that pushed
// one heap event per train — keeping one per link must not move a line.
func TestLinkDeliveryFixture(t *testing.T) {
	want, err := os.ReadFile("testdata/link_delivery.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, tc := range deliveryCases {
		got.WriteString(deliveryTrace(tc))
	}
	if got.String() != string(want) {
		t.Errorf("link deliveries drifted from testdata/link_delivery.golden\n--- got ---\n%s--- want ---\n%s", got.String(), want)
	}
}

// TestLinkHoldsOneDeliveryEvent: K trains in propagation cost the clock
// one heap entry, not K.
func TestLinkHoldsOneDeliveryEvent(t *testing.T) {
	for _, trainSize := range []int{0, 4} {
		clock, link, dst := newTrainLink(t, LinkConfig{
			Rate: units.Mbps(8), Delay: fixtureDelay, TrainSize: trainSize,
		})
		const n = 12
		for i := 0; i < n; i++ {
			link.Send(&Frame{Src: "a", Dst: "b", Size: 512, Payload: i})
		}
		// Everything serialized, nothing delivered yet.
		clock.RunUntil(sim.Time(n*fixtureTick + time.Microsecond))
		if link.Busy() || len(dst.batches) != 0 {
			t.Fatalf("TrainSize %d: busy=%v delivered=%d at %v; want every train in propagation",
				trainSize, link.Busy(), len(dst.batches), clock.Now())
		}
		if got := clock.Pending(); got != 1 {
			t.Errorf("TrainSize %d: Pending = %d with %d frames in propagation, want 1", trainSize, got, n)
		}
		clock.Run()
		if got := len(dst.payloads()); got != n {
			t.Errorf("TrainSize %d: delivered %d frames, want %d", trainSize, got, n)
		}
		if got := clock.Pending(); got != 0 {
			t.Errorf("TrainSize %d: Pending = %d after the run, want 0", trainSize, got)
		}
		if got := clock.MaxPending(); got > 2 {
			t.Errorf("TrainSize %d: MaxPending = %d, want at most one serialization and one delivery event", trainSize, got)
		}
	}
}

package netem

import (
	"testing"
	"time"

	"circuitstart/internal/sim"
	"circuitstart/internal/units"
)

// twoSwitchFabric builds west—east with one trunk and two nodes homed
// on opposite sides.
func twoSwitchFabric(clock *sim.Clock, trunk TrunkConfig) (*GraphFabric, *sink, *sink) {
	g := GraphSpec{
		Switches: []SwitchID{"west", "east"},
		Trunks:   []TrunkSpec{{A: "west", B: "east", Config: trunk}},
		Homes:    map[NodeID]SwitchID{"a": "west", "b": "east"},
	}.Build(clock, nil)
	sa, sb := &sink{clock: clock}, &sink{clock: clock}
	g.Attach("a", Symmetric(units.Mbps(10), 5*time.Millisecond, 0), sa, nil)
	g.Attach("b", Symmetric(units.Mbps(10), 5*time.Millisecond, 0), sb, nil)
	return g, sa, sb
}

func TestGraphRoutedDelivery(t *testing.T) {
	clock := sim.NewClock()
	g, _, sb := twoSwitchFabric(clock, SymmetricTrunk(units.Mbps(100), 3*time.Millisecond, 0))
	if !g.Port("a").Send("b", 512, "hello") {
		t.Fatal("Send rejected")
	}
	clock.Run()
	if len(sb.frames) != 1 {
		t.Fatalf("b received %d frames, want 1", len(sb.frames))
	}
	if f := sb.frames[0]; f.Src != "a" || f.Dst != "b" || f.Payload != "hello" {
		t.Errorf("frame = %+v", f)
	}
	// Latency = uplink ser + 5ms + trunk ser + 3ms + downlink ser + 5ms,
	// exactly the analytic PathOneWay.
	want := sim.Time(g.PathOneWay("a", "b", 512))
	if sb.times[0] != want {
		t.Errorf("arrival at %v, want %v", sb.times[0], want)
	}
	// The trunk saw the frame; the reverse direction did not.
	if st := g.Trunk("west", "east").Stats(); st.CellsDelivered != 1 {
		t.Errorf("west>east delivered %d, want 1", st.CellsDelivered)
	}
	if st := g.Trunk("east", "west").Stats(); st.CellsDelivered != 0 {
		t.Errorf("east>west delivered %d, want 0", st.CellsDelivered)
	}
}

func TestGraphPriorityAcrossMultiHopRoute(t *testing.T) {
	// Three switches in a line; a slow middle trunk builds a queue the
	// priority frame must jump at an interior hop, not just at the edge.
	clock := sim.NewClock()
	g := GraphSpec{
		Switches: []SwitchID{"s1", "s2", "s3"},
		Trunks: []TrunkSpec{
			{A: "s1", B: "s2", Config: SymmetricTrunk(units.Mbps(100), time.Millisecond, 0)},
			{A: "s2", B: "s3", Config: SymmetricTrunk(units.Mbps(1), time.Millisecond, 0)},
		},
		Homes: map[NodeID]SwitchID{"a": "s1", "b": "s3"},
	}.Build(clock, nil)
	col := &sink{clock: clock}
	g.Attach("a", Symmetric(units.Mbps(100), 0, 0), &sink{clock: clock}, nil)
	g.Attach("b", Symmetric(units.Mbps(100), 0, 0), col, nil)

	pa := g.Port("a")
	for i := 0; i < 3; i++ {
		pa.Send("b", 500, i)
	}
	pa.SendPriority("b", 24, "ctrl")
	clock.Run()

	if len(col.frames) != 4 {
		t.Fatalf("delivered %d frames", len(col.frames))
	}
	// The fast edge links drain instantly; the 1 Mbit/s s2>s3 trunk is
	// where the bulk frames queue, and the control frame must overtake
	// all but the frame already serializing there.
	if col.frames[1].Payload != "ctrl" {
		t.Fatalf("order: %v, %v, %v, %v", col.frames[0].Payload,
			col.frames[1].Payload, col.frames[2].Payload, col.frames[3].Payload)
	}
	if !col.frames[1].Priority {
		t.Fatal("priority bit lost crossing the routed backbone")
	}
	if st := g.Trunk("s2", "s3").Stats(); st.MaxQueueLen < 2 {
		t.Errorf("bottleneck trunk MaxQueueLen = %d, want ≥ 2", st.MaxQueueLen)
	}
}

func TestGraphRandomLossOnTrunkRoute(t *testing.T) {
	// Certain loss on the middle trunk: every frame vanishes there and
	// is accounted as RandomLoss on exactly that link.
	clock := sim.NewClock()
	g := GraphSpec{
		Switches: []SwitchID{"s1", "s2"},
		Trunks:   []TrunkSpec{{A: "s1", B: "s2", Config: TrunkConfig{Rate: units.Mbps(10), LossProb: 1}}},
		Homes:    map[NodeID]SwitchID{"a": "s1", "b": "s2"},
	}.Build(clock, sim.NewRNG(1, "trunk-loss"))
	col := &sink{clock: clock}
	g.Attach("a", Symmetric(units.Mbps(10), 0, 0), &sink{clock: clock}, nil)
	g.Attach("b", Symmetric(units.Mbps(10), 0, 0), col, nil)

	const n = 10
	for i := 0; i < n; i++ {
		g.Port("a").Send("b", 512, i)
	}
	clock.Run()
	if len(col.frames) != 0 {
		t.Fatalf("delivered %d frames through a fully lossy trunk", len(col.frames))
	}
	st := g.Trunk("s1", "s2").Stats()
	if st.RandomLoss != n {
		t.Errorf("trunk RandomLoss = %d, want %d", st.RandomLoss, n)
	}
	if up := g.Port("a").Uplink().Stats(); up.CellsDelivered != n {
		t.Errorf("uplink delivered %d, want %d (loss must happen on the trunk)", up.CellsDelivered, n)
	}
}

func TestGraphDeterministicTieBreak(t *testing.T) {
	// Diamond: hub—{left,right}—far with identical trunks. Both routes
	// cost the same; the lexicographically smaller next hop ("left")
	// must carry the traffic, deterministically.
	clock := sim.NewClock()
	cfg := SymmetricTrunk(units.Mbps(100), time.Millisecond, 0)
	g := GraphSpec{
		Switches: []SwitchID{"hub", "left", "right", "far"},
		Trunks: []TrunkSpec{
			{A: "hub", B: "left", Config: cfg},
			{A: "hub", B: "right", Config: cfg},
			{A: "left", B: "far", Config: cfg},
			{A: "right", B: "far", Config: cfg},
		},
		Homes: map[NodeID]SwitchID{"a": "hub", "b": "far"},
	}.Build(clock, nil)
	col := &sink{clock: clock}
	g.Attach("a", Symmetric(units.Mbps(100), 0, 0), &sink{clock: clock}, nil)
	g.Attach("b", Symmetric(units.Mbps(100), 0, 0), col, nil)

	for i := 0; i < 4; i++ {
		g.Port("a").Send("b", 512, i)
	}
	clock.Run()
	if len(col.frames) != 4 {
		t.Fatalf("delivered %d", len(col.frames))
	}
	if st := g.Trunk("hub", "left").Stats(); st.CellsDelivered != 4 {
		t.Errorf("left route delivered %d, want 4", st.CellsDelivered)
	}
	if st := g.Trunk("hub", "right").Stats(); st.Enqueued != 0 {
		t.Errorf("right route saw %d frames, want 0", st.Enqueued)
	}
}

func TestGraphTieBreakSurvivesLateEqualCostPath(t *testing.T) {
	// Two equal-cost, equal-hop routes hub→b (via a,z: 1+4+0 ms; via
	// c,d: 2+2+1 ms). The "a" first hop is lexicographically smaller
	// and must win for b AND for e behind it — even though Dijkstra
	// settles b along the "c" route first and discovers the "a" route
	// later. Regression: relaxing an already-visited switch used to
	// flip b's tie-break after e had inherited the old one.
	clock := sim.NewClock()
	trunk := func(a, b SwitchID, ms int) TrunkSpec {
		return TrunkSpec{A: a, B: b, Config: SymmetricTrunk(units.Mbps(100), time.Duration(ms)*time.Millisecond, 0)}
	}
	g := GraphSpec{
		Switches: []SwitchID{"hub", "a", "z", "b", "c", "d", "e"},
		Trunks: []TrunkSpec{
			trunk("hub", "a", 1), trunk("a", "z", 4), trunk("z", "b", 0),
			trunk("hub", "c", 2), trunk("c", "d", 2), trunk("d", "b", 1),
			trunk("b", "e", 1),
		},
		Homes: map[NodeID]SwitchID{"src": "hub", "dstB": "b", "dstE": "e"},
	}.Build(clock, nil)
	for _, id := range []NodeID{"src", "dstB", "dstE"} {
		g.Attach(id, Symmetric(units.Mbps(100), 0, 0), &sink{clock: clock}, nil)
	}
	g.Port("src").Send("dstB", 512, nil)
	g.Port("src").Send("dstE", 512, nil)
	clock.Run()
	if st := g.Trunk("hub", "a").Stats(); st.CellsDelivered != 2 {
		t.Errorf("hub>a carried %d frames, want 2 (lexicographic tie-break)", st.CellsDelivered)
	}
	if st := g.Trunk("hub", "c").Stats(); st.Enqueued != 0 {
		t.Errorf("hub>c carried %d frames, want 0", st.Enqueued)
	}
	// The analytic transit path agrees with the routed one.
	if ts := g.PathTransits("src", "dstE"); len(ts) != 4 || ts[0].Name() != "trunk:hub>a" {
		names := make([]string, len(ts))
		for i, l := range ts {
			names[i] = l.Name()
		}
		t.Errorf("PathTransits route = %v", names)
	}
}

func TestGraphUnknownAndUnroutable(t *testing.T) {
	clock := sim.NewClock()
	g := GraphSpec{
		Switches: []SwitchID{"s1", "island"}, // no trunk: disconnected
		Homes:    map[NodeID]SwitchID{"a": "s1", "b": "island"},
	}.Build(clock, nil)
	g.Attach("a", Symmetric(units.Mbps(10), 0, 0), &sink{clock: clock}, nil)
	g.Attach("b", Symmetric(units.Mbps(10), 0, 0), &sink{clock: clock}, nil)

	g.Port("a").Send("ghost", 512, nil)
	g.Port("a").Send("b", 512, nil)
	clock.Run()
	if g.UnknownDst() != 1 {
		t.Errorf("UnknownDst = %d, want 1", g.UnknownDst())
	}
	if g.Unroutable() != 1 {
		t.Errorf("Unroutable = %d, want 1", g.Unroutable())
	}
}

func TestGraphAnalyticPaths(t *testing.T) {
	clock := sim.NewClock()
	g := GraphSpec{
		Switches: []SwitchID{"s1", "s2", "s3"},
		Trunks: []TrunkSpec{
			{A: "s1", B: "s2", Config: SymmetricTrunk(units.Mbps(8), 3*time.Millisecond, 0)},
			{A: "s2", B: "s3", Config: SymmetricTrunk(units.Mbps(50), 2*time.Millisecond, 0)},
		},
		Homes: map[NodeID]SwitchID{"a": "s1", "b": "s3"},
	}.Build(clock, nil)
	g.Attach("a", Symmetric(units.Mbps(10), 5*time.Millisecond, 0), &sink{clock: clock}, nil)
	g.Attach("b", Symmetric(units.Mbps(100), 7*time.Millisecond, 0), &sink{clock: clock}, nil)

	ser := func(mbps float64) time.Duration { return units.Mbps(mbps).TransmissionTime(512) }
	want := ser(10) + 5*time.Millisecond + // a's uplink
		ser(8) + 3*time.Millisecond + // s1>s2
		ser(50) + 2*time.Millisecond + // s2>s3
		ser(100) + 7*time.Millisecond // b's downlink
	if got := g.PathOneWay("a", "b", 512); got != want {
		t.Errorf("PathOneWay = %v, want %v", got, want)
	}
	if rtt := g.PathRTT("a", "b", 512); rtt != g.PathOneWay("a", "b", 512)+g.PathOneWay("b", "a", 512) {
		t.Error("RTT != sum of one-way latencies")
	}
	if got := g.BottleneckRate([]NodeID{"a", "b"}); got != units.Mbps(8) {
		t.Errorf("BottleneckRate = %v, want 8 Mbit/s (the s1>s2 trunk)", got)
	}
}

func TestGraphHomeDefaultIsDeterministic(t *testing.T) {
	build := func() *GraphFabric {
		cfg := SymmetricTrunk(units.Mbps(10), 0, 0)
		return GraphSpec{
			Switches: []SwitchID{"s1", "s2", "s3"},
			Trunks:   []TrunkSpec{{A: "s1", B: "s2", Config: cfg}, {A: "s2", B: "s3", Config: cfg}},
		}.Build(sim.NewClock(), nil)
	}
	g1, g2 := build(), build()
	spread := map[SwitchID]int{}
	for i := 0; i < 64; i++ {
		id := NodeID(rune('a'+i%26)) + NodeID(rune('0'+i/26))
		if g1.home(id) != g2.home(id) {
			t.Fatalf("node %q homes differ across identical fabrics", id)
		}
		spread[g1.home(id)]++
	}
	if len(spread) < 2 {
		t.Errorf("hash homing used %d of 3 switches", len(spread))
	}
}

func TestGraphSpecValidate(t *testing.T) {
	trunk := SymmetricTrunk(units.Mbps(10), 0, 0)
	cases := []struct {
		name string
		spec GraphSpec
	}{
		{"no switches", GraphSpec{}},
		{"duplicate switch", GraphSpec{Switches: []SwitchID{"a", "a"}}},
		{"self-loop trunk", GraphSpec{Switches: []SwitchID{"a"}, Trunks: []TrunkSpec{{A: "a", B: "a", Config: trunk}}}},
		{"unknown trunk endpoint", GraphSpec{Switches: []SwitchID{"a"}, Trunks: []TrunkSpec{{A: "a", B: "ghost", Config: trunk}}}},
		{"duplicate trunk", GraphSpec{Switches: []SwitchID{"a", "b"},
			Trunks: []TrunkSpec{{A: "a", B: "b", Config: trunk}, {A: "b", B: "a", Config: trunk}}}},
		{"bad rate", GraphSpec{Switches: []SwitchID{"a", "b"}, Trunks: []TrunkSpec{{A: "a", B: "b"}}}},
		{"bad loss", GraphSpec{Switches: []SwitchID{"a", "b"},
			Trunks: []TrunkSpec{{A: "a", B: "b", Config: TrunkConfig{Rate: 1, LossProb: 2}}}}},
		{"home to unknown switch", GraphSpec{Switches: []SwitchID{"a"},
			Homes: map[NodeID]SwitchID{"n": "ghost"}}},
	}
	for _, tc := range cases {
		if err := tc.spec.Validate(); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
	ok := GraphSpec{
		Switches: []SwitchID{"a", "b"},
		Trunks:   []TrunkSpec{{A: "a", B: "b", Config: trunk}},
		Homes:    map[NodeID]SwitchID{"n": "a"},
	}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	if !ok.HasTrunk("b", "a") || ok.HasTrunk("a", "ghost") {
		t.Error("HasTrunk broken")
	}
}

func TestGraphSpecBuild(t *testing.T) {
	clock := sim.NewClock()
	spec := GraphSpec{
		Switches: []SwitchID{"s1", "s2"},
		Trunks:   []TrunkSpec{{A: "s1", B: "s2", Config: SymmetricTrunk(units.Mbps(10), time.Millisecond, 0)}},
		Homes:    map[NodeID]SwitchID{"a": "s1", "b": "s2"},
	}
	g := spec.Build(clock, nil)
	col := &sink{clock: clock}
	g.Attach("a", Symmetric(units.Mbps(10), 0, 0), &sink{clock: clock}, nil)
	g.Attach("b", Symmetric(units.Mbps(10), 0, 0), col, nil)
	g.Port("a").Send("b", 512, "x")
	clock.Run()
	if len(col.frames) != 1 {
		t.Fatal("spec-built fabric did not deliver")
	}
	if got := len(g.Trunks()); got != 2 {
		t.Fatalf("%d directed trunks, want 2", got)
	}
	for name, build := range map[string]func(){
		"nil clock":    func() { spec.Build(nil, nil) },
		"invalid spec": func() { GraphSpec{}.Build(clock, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Build with %s did not panic", name)
				}
			}()
			build()
		}()
	}
}

// TestGraphBuildPhasePanics pins the one construction panic Validate
// cannot see: a node attached twice. Every structural error of the
// backbone is a GraphSpec.Validate error (TestGraphSpecValidate), and
// Build validates first.
func TestGraphBuildPhasePanics(t *testing.T) {
	clock := sim.NewClock()
	g := GraphSpec{Switches: []SwitchID{"s1"}}.Build(clock, nil)
	g.Attach("n", Symmetric(units.Mbps(1), 0, 0), &sink{clock: clock}, nil)
	defer func() {
		if recover() == nil {
			t.Error("duplicate attach did not panic")
		}
	}()
	g.Attach("n", Symmetric(units.Mbps(1), 0, 0), &sink{clock: clock}, nil)
}

// The paper's star is the one-switch graph NewStarFabric builds: the
// tests below pin its behaviour.

func TestStarEndToEndDelivery(t *testing.T) {
	clock := sim.NewClock()
	star := NewStarFabric(clock)
	got := &sink{clock: clock}
	star.Attach("a", Symmetric(units.Mbps(10), 5*time.Millisecond, 0), &sink{clock: clock}, nil)
	pb := star.Attach("b", Symmetric(units.Mbps(10), 5*time.Millisecond, 0), got, nil)
	_ = pb

	pa := star.Port("a")
	if !pa.Send("b", 512, "hello") {
		t.Fatal("Send rejected")
	}
	clock.Run()
	if len(got.frames) != 1 {
		t.Fatalf("b received %d frames, want 1", len(got.frames))
	}
	f := got.frames[0]
	if f.Src != "a" || f.Dst != "b" || f.Payload != "hello" {
		t.Errorf("frame = %+v", f)
	}
	// Latency: 2 serializations (512B @10Mbit/s = 409.6→410µs... exact:
	// 4096/1e7 s = 409.6µs, rounded up per serialization) + 2×5ms.
	ser := units.Mbps(10).TransmissionTime(512)
	want := sim.Time(2*ser + 10*time.Millisecond)
	if got.times[0] != want {
		t.Errorf("arrival at %v, want %v", got.times[0], want)
	}
}

func TestStarBidirectional(t *testing.T) {
	clock := sim.NewClock()
	star := NewStarFabric(clock)
	sa := &sink{clock: clock}
	sb := &sink{clock: clock}
	pa := star.Attach("a", Symmetric(units.Mbps(10), time.Millisecond, 0), sa, nil)
	pb := star.Attach("b", Symmetric(units.Mbps(10), time.Millisecond, 0), sb, nil)
	pa.Send("b", 512, 1)
	pb.Send("a", 512, 2)
	clock.Run()
	if len(sb.frames) != 1 || len(sa.frames) != 1 {
		t.Fatalf("a got %d, b got %d; want 1 each", len(sa.frames), len(sb.frames))
	}
}

func TestStarUnknownDestination(t *testing.T) {
	clock := sim.NewClock()
	star := NewStarFabric(clock)
	pa := star.Attach("a", Symmetric(units.Mbps(10), 0, 0), &sink{clock: clock}, nil)
	pa.Send("ghost", 512, nil)
	clock.Run()
	if star.UnknownDst() != 1 {
		t.Errorf("UnknownDst = %d, want 1", star.UnknownDst())
	}
}

func TestStarDuplicateAttachPanics(t *testing.T) {
	clock := sim.NewClock()
	star := NewStarFabric(clock)
	star.Attach("a", Symmetric(units.Mbps(10), 0, 0), &sink{clock: clock}, nil)
	defer func() {
		if recover() == nil {
			t.Error("duplicate Attach did not panic")
		}
	}()
	star.Attach("a", Symmetric(units.Mbps(10), 0, 0), &sink{clock: clock}, nil)
}

func TestStarNodesSorted(t *testing.T) {
	clock := sim.NewClock()
	star := NewStarFabric(clock)
	for _, id := range []NodeID{"zeta", "alpha", "mid"} {
		star.Attach(id, Symmetric(units.Mbps(10), 0, 0), &sink{clock: clock}, nil)
	}
	got := star.Nodes()
	want := []NodeID{"alpha", "mid", "zeta"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Nodes() = %v, want %v", got, want)
		}
	}
}

func TestStarAsymmetricBottleneck(t *testing.T) {
	// a has a fast uplink; b has a slow downlink. The b downlink
	// bounds throughput a→b.
	clock := sim.NewClock()
	star := NewStarFabric(clock)
	got := &sink{clock: clock}
	star.Attach("a", Symmetric(units.Mbps(100), time.Millisecond, 0), &sink{clock: clock}, nil)
	star.Attach("b", AccessConfig{
		UpRate: units.Mbps(100), DownRate: units.Mbps(2),
		Delay: time.Millisecond,
	}, got, nil)
	const n = 200
	pa := star.Port("a")
	for i := 0; i < n; i++ {
		pa.Send("b", 512, i)
	}
	end := clock.Run()
	if len(got.frames) != n {
		t.Fatalf("delivered %d", len(got.frames))
	}
	rate := units.RateFromTransfer(n*512, end.Duration())
	if r := rate.Mbit(); r > 2.05 {
		t.Errorf("achieved %.2f Mbit/s through a 2 Mbit/s bottleneck", r)
	}
}

func TestPathRTTAndOneWay(t *testing.T) {
	clock := sim.NewClock()
	star := NewStarFabric(clock)
	star.Attach("a", Symmetric(units.Mbps(8), 5*time.Millisecond, 0), &sink{clock: clock}, nil)
	star.Attach("b", Symmetric(units.Mbps(8), 7*time.Millisecond, 0), &sink{clock: clock}, nil)
	ser := units.Mbps(8).TransmissionTime(512) // 512µs
	oneWay := star.PathOneWay("a", "b", 512)
	if want := 2*ser + 12*time.Millisecond; oneWay != want {
		t.Errorf("PathOneWay = %v, want %v", oneWay, want)
	}
	rtt := star.PathRTT("a", "b", 512)
	if want := 4*ser + 24*time.Millisecond; rtt != want {
		t.Errorf("PathRTT = %v, want %v", rtt, want)
	}
	if rtt != star.PathOneWay("a", "b", 512)+star.PathOneWay("b", "a", 512) {
		t.Error("RTT != sum of one-way latencies")
	}
	// One switch: no trunk lies between any two nodes.
	if ts := star.PathTransits("a", "b"); len(ts) != 0 {
		t.Errorf("PathTransits on the star = %d links, want 0", len(ts))
	}
	if star.Trunks() != nil {
		t.Errorf("the star has %d trunks", len(star.Trunks()))
	}
}

func TestBottleneckRate(t *testing.T) {
	clock := sim.NewClock()
	star := NewStarFabric(clock)
	mk := func(id NodeID, up, down float64) {
		star.Attach(id, AccessConfig{UpRate: units.Mbps(up), DownRate: units.Mbps(down), Delay: time.Millisecond}, &sink{clock: clock}, nil)
	}
	mk("c", 50, 50)
	mk("r1", 100, 100)
	mk("r2", 8, 100) // slow uplink — the bottleneck
	mk("r3", 100, 100)
	mk("s", 100, 100)
	got := star.BottleneckRate([]NodeID{"c", "r1", "r2", "r3", "s"})
	if got != units.Mbps(8) {
		t.Errorf("BottleneckRate = %v, want 8Mbit/s", got)
	}
}

func TestBottleneckRatePanicsOnShortPath(t *testing.T) {
	star := NewStarFabric(sim.NewClock())
	defer func() {
		if recover() == nil {
			t.Error("no panic on single-node path")
		}
	}()
	star.BottleneckRate([]NodeID{"only"})
}

func TestStarAttachValidation(t *testing.T) {
	star := NewStarFabric(sim.NewClock())
	defer func() {
		if recover() == nil {
			t.Error("nil handler did not panic")
		}
	}()
	star.Attach("x", Symmetric(units.Mbps(1), 0, 0), nil, nil)
}

// TestStarTransitZeroAlloc pins a node-to-node crossing of the star —
// uplink, switch, downlink, recycle — at zero steady-state allocations.
func TestStarTransitZeroAlloc(t *testing.T) {
	clock := sim.NewClock()
	star := NewStarFabric(clock)
	access := Symmetric(units.Mbps(100), time.Millisecond, 0)
	delivered := 0
	pa := star.Attach("a", access, HandlerFunc(func(*Frame) {}), nil)
	star.Attach("b", access, HandlerFunc(func(*Frame) { delivered++ }), nil)
	cycle := func() {
		pa.Send("b", 512, nil)
		clock.Run()
	}
	cycle()
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Fatalf("steady-state star transit allocates %.1f per frame", avg)
	}
	if delivered != pinCycles {
		t.Fatalf("delivered %d of %d frames", delivered, pinCycles)
	}
}

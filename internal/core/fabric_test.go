package core

import (
	"testing"
	"time"

	"circuitstart/internal/netem"
	"circuitstart/internal/sim"
	"circuitstart/internal/units"
)

// backboneNetwork builds a network on a two-switch fabric with the
// circuit's relays split across the trunk.
func backboneNetwork(t *testing.T, trunkRate units.DataRate) *Network {
	t.Helper()
	spec := netem.GraphSpec{
		Switches: []netem.SwitchID{"east", "west"},
		Trunks: []netem.TrunkSpec{
			{A: "west", B: "east", Config: netem.SymmetricTrunk(trunkRate, 3*time.Millisecond, 0)},
		},
		Homes: map[netem.NodeID]netem.SwitchID{
			"client": "west", "g": "west",
			"m": "east", "e": "east", "server": "east",
		},
	}
	n := NewNetworkWithFabric(7, func(clock *sim.Clock, rng *sim.RNG) netem.Fabric {
		return spec.Build(clock, rng)
	})
	access := netem.Symmetric(units.Mbps(100), 2*time.Millisecond, 0)
	for _, id := range []netem.NodeID{"g", "m", "e"} {
		n.MustAddRelay(id, access)
	}
	return n
}

func TestCircuitAcrossGraphFabric(t *testing.T) {
	n := backboneNetwork(t, units.Mbps(8))
	access := netem.Symmetric(units.Mbps(100), 2*time.Millisecond, 0)
	c := n.MustBuildCircuit(CircuitSpec{
		Source: "client", Sink: "server",
		SourceAccess: access, SinkAccess: access,
		Relays: []netem.NodeID{"g", "m", "e"},
	})
	c.Transfer(200*units.Kilobyte, nil)
	n.RunUntil(60 * sim.Second)
	ttlb, done := c.TTLB()
	if !done {
		t.Fatal("transfer did not complete across the backbone")
	}
	if ttlb <= 0 {
		t.Fatalf("TTLB = %v", ttlb)
	}
	// All forward data crossed the g(west) → m(east) trunk hop.
	gf := n.Fabric().(*netem.GraphFabric)
	if st := gf.Trunk("west", "east").Stats(); st.CellsDelivered == 0 {
		t.Error("no frames crossed the west>east trunk")
	}
	if gf.UnknownDst() != 0 || gf.Unroutable() != 0 {
		t.Errorf("fabric dropped frames: unknown=%d unroutable=%d",
			gf.UnknownDst(), gf.Unroutable())
	}
}

func TestTrunkBottlenecksThroughput(t *testing.T) {
	// With a 4 Mbit/s trunk between 100 Mbit/s accesses, the trunk is
	// the bottleneck: the transfer cannot beat trunk line rate.
	n := backboneNetwork(t, units.Mbps(4))
	access := netem.Symmetric(units.Mbps(100), 2*time.Millisecond, 0)
	c := n.MustBuildCircuit(CircuitSpec{
		Source: "client", Sink: "server",
		SourceAccess: access, SinkAccess: access,
		Relays: []netem.NodeID{"g", "m", "e"},
	})
	const size = 500 * units.Kilobyte
	c.Transfer(size, nil)
	n.RunUntil(120 * sim.Second)
	ttlb, done := c.TTLB()
	if !done {
		t.Fatal("transfer did not complete")
	}
	// Wire bytes exceed application bytes (cell framing), so the floor
	// is conservative.
	floor := time.Duration(float64(size.Bytes()) * 8 / 4e6 * float64(time.Second))
	if ttlb < floor {
		t.Errorf("TTLB %v beats the 4 Mbit/s trunk floor %v", ttlb, floor)
	}
	if n.Fabric().BottleneckRate([]netem.NodeID{"client", "g", "m", "e", "server"}) != units.Mbps(4) {
		t.Error("BottleneckRate missed the trunk")
	}
	// The analytic model sees the trunk too: its bottleneck is the 4
	// Mbit/s trunk, not the 100 Mbit/s accesses, and the optimal
	// window is trunk-limited.
	if got := c.ModelPath().BottleneckRate(); got != units.Mbps(4) {
		t.Errorf("model BottleneckRate = %v, want the trunk's 4 Mbit/s", got)
	}
	star := NewNetwork(7)
	for _, id := range []netem.NodeID{"g", "m", "e"} {
		star.MustAddRelay(id, access)
	}
	sc := star.MustBuildCircuit(CircuitSpec{
		Source: "client", Sink: "server",
		SourceAccess: access, SinkAccess: access,
		Relays: []netem.NodeID{"g", "m", "e"},
	})
	if c.ModelPath().OptimalSourceWindowCells() >= sc.ModelPath().OptimalSourceWindowCells() {
		t.Errorf("trunk-limited optimal %v not below star optimal %v",
			c.ModelPath().OptimalSourceWindowCells(), sc.ModelPath().OptimalSourceWindowCells())
	}
}

func TestNewNetworkWithFabricValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil fabric accepted")
		}
	}()
	NewNetworkWithFabric(1, func(*sim.Clock, *sim.RNG) netem.Fabric { return nil })
}

package core

import (
	"fmt"
	"testing"
	"time"

	"circuitstart/internal/metrics"
	"circuitstart/internal/netem"
	"circuitstart/internal/sim"
	"circuitstart/internal/units"
)

// TestMixedPoliciesCoexist runs a CircuitStart circuit and a classic
// slow-start circuit through the same relays simultaneously: both must
// complete, and the aggressive ramp must not starve the CircuitStart
// flow ("it is desired that Tor traffic behave much like background
// traffic").
func TestMixedPoliciesCoexist(t *testing.T) {
	n := NewNetwork(77)
	access := netem.Symmetric(units.Mbps(16), 5*time.Millisecond, 256*units.Kilobyte)
	relays := []netem.NodeID{"r1", "r2", "r3"}
	for _, id := range relays {
		n.MustAddRelay(id, access)
	}
	mk := func(i int, policy string) *Circuit {
		return n.MustBuildCircuit(CircuitSpec{
			Source:       netem.NodeID("client-" + policy),
			Sink:         netem.NodeID("server-" + policy),
			SourceAccess: netem.Symmetric(units.Mbps(100), 5*time.Millisecond, 0),
			SinkAccess:   netem.Symmetric(units.Mbps(100), 5*time.Millisecond, 0),
			Relays:       relays,
			Transport:    TransportOptions{Policy: policy},
		})
	}
	cs := mk(0, "circuitstart")
	ss := mk(1, "slowstart")

	size := 400 * units.Kilobyte
	cs.Transfer(size, nil)
	ss.Transfer(size, nil)
	n.RunUntil(120 * sim.Second)

	csT, csOK := cs.TTLB()
	ssT, ssOK := ss.TTLB()
	if !csOK || !ssOK {
		t.Fatalf("incomplete: cs=%v ss=%v", csOK, ssOK)
	}
	// Fair-share completion for two equal transfers over one bottleneck
	// would be ~2× the solo time. Jain's index over the two completion
	// times must stay above the value a 4:1 starvation would produce
	// (J(1,4) = 25/34 ≈ 0.735).
	jain := metrics.JainIndex([]float64{csT.Seconds(), ssT.Seconds()})
	if jain < 25.0/34.0 {
		t.Fatalf("gross unfairness (Jain %.3f): circuitstart %v vs slowstart %v", jain, csT, ssT)
	}
}

// TestManySmallCircuits stresses circuit multiplexing: 20 circuits with
// distinct endpoints share 6 relays.
func TestManySmallCircuits(t *testing.T) {
	n := NewNetwork(99)
	relays := make([]netem.NodeID, 6)
	for i := range relays {
		relays[i] = netem.NodeID(string(rune('a' + i)))
		n.MustAddRelay(relays[i], netem.Symmetric(units.Mbps(40), 3*time.Millisecond, 0))
	}
	circuits := make([]*Circuit, 20)
	for i := range circuits {
		path := []netem.NodeID{relays[i%6], relays[(i+2)%6], relays[(i+4)%6]}
		circuits[i] = n.MustBuildCircuit(CircuitSpec{
			Source:       netem.NodeID("c" + string(rune('A'+i))),
			Sink:         netem.NodeID("s" + string(rune('A'+i))),
			SourceAccess: netem.Symmetric(units.Mbps(50), 3*time.Millisecond, 0),
			SinkAccess:   netem.Symmetric(units.Mbps(50), 3*time.Millisecond, 0),
			Relays:       path,
		})
	}
	for _, c := range circuits {
		c.Transfer(50*units.Kilobyte, nil)
	}
	n.RunUntil(120 * sim.Second)
	for i, c := range circuits {
		if !c.Done() {
			t.Errorf("circuit %d incomplete", i)
		}
		if c.Sink().BadCells() != 0 {
			t.Errorf("circuit %d: %d bad cells (crypto state crossed circuits?)", i, c.Sink().BadCells())
		}
	}
}

// TestEventHeapBoundedByLinksAndCircuits pins the depth of the event
// heap on a trial shaped like the paper's Figure 1 aggregate run — 50
// staggered 250 kB downloads over a 40-relay star, one event per cell.
// A link holds at most one serialization and one delivery event however
// many frames it has in propagation, and a circuit a handful of timers
// per hop, so the high-water mark is O(links + circuits). With one heap
// event per frame in propagation the same trial peaks in the thousands.
func TestEventHeapBoundedByLinksAndCircuits(t *testing.T) {
	const (
		relays   = 40
		circuits = 50
	)
	n := NewNetwork(42)
	ids := make([]netem.NodeID, relays)
	for i := range ids {
		ids[i] = netem.NodeID(fmt.Sprintf("r%02d", i))
		// Rates from 8 to 86 Mbit/s and delays from 5 to 24 ms, so paths
		// have distinct bottlenecks and long pipes.
		n.MustAddRelay(ids[i], netem.Symmetric(units.Mbps(float64(8+2*i)), time.Duration(5+i%20)*time.Millisecond, 0))
	}
	edge := netem.Symmetric(units.Mbps(100), 10*time.Millisecond, 0)
	built := make([]*Circuit, circuits)
	for i := range built {
		c := n.MustBuildCircuit(CircuitSpec{
			Source: netem.NodeID(fmt.Sprintf("client%02d", i)), Sink: netem.NodeID(fmt.Sprintf("server%02d", i)),
			SourceAccess: edge, SinkAccess: edge,
			Relays: []netem.NodeID{ids[i%relays], ids[(7*i+3)%relays], ids[(11*i+17)%relays]},
		})
		built[i] = c
		n.Clock().After(time.Duration(i)*4*time.Millisecond, func() { c.TransferBackward(250*units.Kilobyte, nil) })
	}
	n.RunUntil(600 * sim.Second)
	for i, c := range built {
		if !c.Done() {
			t.Fatalf("circuit %d incomplete at the horizon", i)
		}
	}
	links := 2 * len(n.Fabric().Nodes())
	bound := 2*links + 6*circuits
	got := n.Clock().MaxPending()
	t.Logf("MaxPending %d over %d links and %d circuits (bound %d), %d events", got, links, circuits, bound, n.Clock().Processed())
	if got > bound {
		t.Errorf("MaxPending = %d, want ≤ 2×%d links + 6×%d circuits = %d: the heap is growing with frames in flight again",
			got, links, circuits, bound)
	}
}

// TestLongCircuit checks a 5-hop path (beyond Tor's default three):
// back-propagation must still reach the source.
func TestLongCircuit(t *testing.T) {
	n := NewNetwork(5)
	relays := []netem.NodeID{"h1", "h2", "h3", "h4", "h5"}
	for i, id := range relays {
		rate := units.Mbps(100)
		if i == 4 {
			rate = units.Mbps(8) // bottleneck at the far end
		}
		n.MustAddRelay(id, netem.Symmetric(rate, 4*time.Millisecond, 0))
	}
	c := n.MustBuildCircuit(CircuitSpec{
		Source: "client", Sink: "server",
		SourceAccess: netem.Symmetric(units.Mbps(100), 4*time.Millisecond, 0),
		SinkAccess:   netem.Symmetric(units.Mbps(100), 4*time.Millisecond, 0),
		Relays:       relays,
		TraceCwnd:    true,
	})
	c.Transfer(2*units.Megabyte, nil)
	n.RunUntil(5 * sim.Second)

	if !c.Done() && c.Sink().Received() == 0 {
		t.Fatal("no progress on 5-hop circuit")
	}
	opt := c.ModelPath().OptimalSourceWindowCells()
	if _, ok := c.SourceTrace().ConvergeTime(opt, opt*0.6, 0.25); !ok {
		last, _ := c.SourceTrace().Last()
		t.Fatalf("5-hop source window never converged near optimal %.1f (last %.1f)", opt, last.Value)
	}
}

// TestSingleHopCircuit checks the degenerate one-relay path.
func TestSingleHopCircuit(t *testing.T) {
	n := NewNetwork(6)
	n.MustAddRelay("only", netem.Symmetric(units.Mbps(10), 5*time.Millisecond, 0))
	c := n.MustBuildCircuit(CircuitSpec{
		Source: "client", Sink: "server",
		SourceAccess: netem.Symmetric(units.Mbps(100), 5*time.Millisecond, 0),
		SinkAccess:   netem.Symmetric(units.Mbps(100), 5*time.Millisecond, 0),
		Relays:       []netem.NodeID{"only"},
	})
	size := 300 * units.Kilobyte
	c.Transfer(size, nil)
	n.RunUntil(60 * sim.Second)
	if !c.Done() || c.Sink().Received() != size {
		t.Fatalf("single-hop transfer incomplete: %v", c.Sink().Received())
	}
}

package core

import (
	"testing"
	"time"

	"circuitstart/internal/endpoint"
	"circuitstart/internal/netem"
	"circuitstart/internal/sim"
	"circuitstart/internal/units"
)

func buildLifecycleNet(t *testing.T) (*Network, *Circuit) {
	t.Helper()
	n := NewNetwork(7)
	access := netem.Symmetric(units.Mbps(20), 5*time.Millisecond, 0)
	for _, id := range []netem.NodeID{"r1", "r2", "r3"} {
		n.MustAddRelay(id, access)
	}
	c := n.MustBuildCircuit(CircuitSpec{
		Source: "client", Sink: "server",
		SourceAccess: access, SinkAccess: access,
		Relays: []netem.NodeID{"r1", "r2", "r3"},
	})
	return n, c
}

func TestTeardownMidTransferReleasesState(t *testing.T) {
	n, c := buildLifecycleNet(t)
	completed := false
	c.Transfer(4*units.Megabyte, func(time.Duration) { completed = true })

	// Let the transfer get going, then tear the circuit down mid-flight.
	n.RunUntil(200 * sim.Millisecond)
	n.Clock().After(0, c.Teardown)
	n.RunUntil(30 * sim.Second)

	if completed || c.Done() {
		t.Fatal("aborted transfer reported complete")
	}
	if !c.Closed() {
		t.Fatal("circuit not closed after Teardown")
	}
	if got := c.Lifetime(); got != 200*time.Millisecond {
		t.Fatalf("Lifetime %v, want 200ms", got)
	}
	for _, id := range []netem.NodeID{"r1", "r2", "r3"} {
		if n.Relay(id).Circuits() != 0 {
			t.Fatalf("relay %s still carries circuit state", id)
		}
		if n.Relay(id).HopSender(c.id) != nil {
			t.Fatalf("relay %s still has a hop sender", id)
		}
	}
	// The clock must drain: no orphaned RTO/probe timers rearming forever.
	if got := n.Clock().Pending(); got != 0 {
		t.Fatalf("%d events still pending long after teardown", got)
	}
	if !c.Source().Closed() || !c.Sink().Closed() {
		t.Fatal("endpoints not closed")
	}
}

func TestTeardownIsIdempotentAndSurvivesInFlightFrames(t *testing.T) {
	n, c := buildLifecycleNet(t)
	c.Transfer(1*units.Megabyte, nil)
	n.RunUntil(100 * sim.Millisecond)
	// Teardown at an instant when data, ACKs and feedback are in flight
	// on every link of the path: the endpoints and relays must absorb
	// them without panicking.
	n.Clock().After(0, func() {
		c.Teardown()
		c.Teardown() // idempotent
	})
	n.Run()
	if n.Relay("r1").Stats().UnknownCircuit == 0 {
		t.Log("no in-flight frames hit the torn-down hop (timing-dependent; not a failure)")
	}
}

func TestTeardownAfterCompletionAllowsRebuildOverSameRelays(t *testing.T) {
	n, c := buildLifecycleNet(t)
	c.Transfer(200*units.Kilobyte, nil)
	n.Run()
	if !c.Done() {
		t.Fatal("transfer incomplete")
	}
	ttlb1, _ := c.TTLB()
	c.Teardown()

	// Same relays, fresh circuit and endpoints: the second build must
	// work and complete (relay hop state was fully removed).
	access := netem.Symmetric(units.Mbps(20), 5*time.Millisecond, 0)
	c2 := n.MustBuildCircuit(CircuitSpec{
		Source: "client-2", Sink: "server-2",
		SourceAccess: access, SinkAccess: access,
		Relays: []netem.NodeID{"r1", "r2", "r3"},
	})
	if c2.id == c.id {
		t.Fatal("rebuilt circuit reused the old ID")
	}
	c2.Transfer(200*units.Kilobyte, nil)
	n.Run()
	if !c2.Done() {
		t.Fatal("rebuilt circuit's transfer incomplete")
	}
	if ttlb2, _ := c2.TTLB(); ttlb2 <= 0 || ttlb1 <= 0 {
		t.Fatal("bad TTLBs")
	}
}

func TestFailedRelayBlackholesAndRecovers(t *testing.T) {
	n, c := buildLifecycleNet(t)
	r2 := n.Relay("r2")
	c.Transfer(2*units.Megabyte, nil)
	n.RunUntil(100 * sim.Millisecond)
	n.Clock().After(0, func() {
		r2.Fail()
		c.Teardown() // the engine's contract: failed circuits are torn down
	})
	n.RunUntil(500 * sim.Millisecond)
	if !r2.Failed() {
		t.Fatal("relay not failed")
	}
	if r2.Stats().FailedDrops == 0 {
		t.Fatal("failed relay dropped nothing despite in-flight traffic")
	}
	r2.Recover()
	if r2.Failed() {
		t.Fatal("relay still failed after Recover")
	}
	// A fresh circuit through the recovered relay works.
	access := netem.Symmetric(units.Mbps(20), 5*time.Millisecond, 0)
	c2 := n.MustBuildCircuit(CircuitSpec{
		Source: "client-2", Sink: "server-2",
		SourceAccess: access, SinkAccess: access,
		Relays: []netem.NodeID{"r1", "r2", "r3"},
	})
	c2.Transfer(100*units.Kilobyte, nil)
	n.Run()
	if !c2.Done() {
		t.Fatal("transfer through recovered relay incomplete")
	}
}

// TestLongTransferHoldsOnlyTheCellsInFlight pins what on-demand
// packetization buys: a transfer far larger than the horizon can move
// costs cells in proportion to the windows in flight, not to its size —
// and tearing it down mid-flight has no unsent cells to give back, only
// a backlog count to forget.
func TestLongTransferHoldsOnlyTheCellsInFlight(t *testing.T) {
	n, c := buildLifecycleNet(t)
	const size = 64 * units.Megabyte
	c.Transfer(size, nil)
	n.RunUntil(200 * sim.Millisecond)

	sender := c.Source().Sender()
	sent := int(sender.Stats().Transmitted)
	if sent == 0 {
		t.Fatal("nothing transmitted in 200 ms")
	}
	if got, want := sender.QueueLen(), endpoint.CellsFor(size)-sent; got != want {
		t.Fatalf("source QueueLen = %d, want the %d cells not yet transmitted", got, want)
	}
	// Eager packetization allocated all 129,033 cells up front; the 20
	// Mbit/s path keeps a few hundred in circulation.
	if all := n.ar.Cells.Len(); all == 0 || all >= 4096 || all > sent {
		t.Fatalf("cell pool grew to %d cells after %d transmissions of a %d-cell transfer; want 0 < cells < 4096",
			all, sent, endpoint.CellsFor(size))
	}

	n.Clock().After(0, c.Teardown)
	n.RunUntil(30 * sim.Second)
	if got := sender.QueueLen(); got != 0 {
		t.Fatalf("source QueueLen = %d after teardown, want the backlog dropped", got)
	}
	if got := n.Clock().Pending(); got != 0 {
		t.Fatalf("%d events still pending long after teardown", got)
	}
	// Balance: teardown recycles nothing (cells in flight or retained at
	// a relay are aliased by neighbouring hops), so the free list holds
	// only what the sink consumed — each cell once, none the pool did
	// not allocate — and with the clock idle every frame and segment
	// wrapper is back.
	if err := n.ar.Balance(); err != nil {
		t.Fatal(err)
	}
}

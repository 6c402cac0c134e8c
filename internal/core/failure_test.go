package core

import (
	"testing"
	"time"

	"circuitstart/internal/netem"
	"circuitstart/internal/sim"
	"circuitstart/internal/units"
)

// lossyNet builds a 3-relay circuit whose links all drop frames with
// the given probability and/or bound their queues.
func lossyNet(t *testing.T, lossProb float64, queueCap units.DataSize, opts TransportOptions) (*Network, *Circuit) {
	t.Helper()
	n := NewNetwork(1337)
	access := netem.AccessConfig{
		UpRate: units.Mbps(20), DownRate: units.Mbps(20),
		Delay: 5 * time.Millisecond, QueueCap: queueCap, LossProb: lossProb,
	}
	relays := []netem.NodeID{"r1", "r2", "r3"}
	for _, id := range relays {
		if _, err := n.AddRelay(id, access); err != nil {
			t.Fatal(err)
		}
	}
	c, err := n.BuildCircuit(CircuitSpec{
		Source: "client", Sink: "server",
		SourceAccess: access, SinkAccess: access,
		Relays:    relays,
		Transport: opts,
	})
	if err != nil {
		t.Fatal(err)
	}
	return n, c
}

func TestTransferSurvivesRandomLoss(t *testing.T) {
	// 2% random loss on every link of every hop: reliability must still
	// deliver every byte, in order, with correct onion decryption.
	n, c := lossyNet(t, 0.02, 0, TransportOptions{})
	size := 200 * units.Kilobyte
	c.Transfer(size, nil)
	n.RunUntil(600 * sim.Second)

	if !c.Done() {
		t.Fatalf("transfer incomplete under loss: %v of %v", c.Sink().Received(), size)
	}
	if c.Sink().Received() != size {
		t.Fatalf("received %v, want %v", c.Sink().Received(), size)
	}
	if c.Sink().BadCells() != 0 {
		t.Fatalf("%d corrupted cells reached the sink", c.Sink().BadCells())
	}
	// Loss must actually have occurred and been repaired.
	var retrans uint64
	retrans += c.SourceSender().Stats().Retransmitted
	for i := 0; i < 3; i++ {
		retrans += relaySender(c, i).Stats().Retransmitted
	}
	if retrans == 0 {
		t.Fatal("no retransmissions under 2% loss — loss injection inert")
	}
}

func TestTransferSurvivesTinyQueues(t *testing.T) {
	// Queue caps of ~8 cells force tail drops during the ramp; the RTO
	// path must recover every drop.
	n, c := lossyNet(t, 0, 8*528*units.Byte, TransportOptions{})
	size := 100 * units.Kilobyte
	c.Transfer(size, nil)
	n.RunUntil(600 * sim.Second)

	if !c.Done() {
		t.Fatalf("transfer incomplete with bounded queues: %v of %v", c.Sink().Received(), size)
	}
	if c.Sink().Received() != size {
		t.Fatalf("received %v, want %v", c.Sink().Received(), size)
	}
}

func TestHeavyLossEventuallyCompletes(t *testing.T) {
	if testing.Short() {
		t.Skip("slow under heavy loss")
	}
	// 10% loss is brutal for a cumulative-ACK protocol; it must still
	// terminate (no livelock, no stuck feedback).
	n, c := lossyNet(t, 0.10, 0, TransportOptions{})
	size := 50 * units.Kilobyte
	c.Transfer(size, nil)
	n.RunUntil(3600 * sim.Second)
	if !c.Done() {
		t.Fatalf("transfer incomplete under 10%% loss: %v of %v", c.Sink().Received(), size)
	}
}

func TestLossDeterminism(t *testing.T) {
	run := func() time.Duration {
		n, c := lossyNet(t, 0.05, 0, TransportOptions{})
		c.Transfer(50*units.Kilobyte, nil)
		n.RunUntil(600 * sim.Second)
		ttlb, ok := c.TTLB()
		if !ok {
			t.Fatal("incomplete")
		}
		return ttlb
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("lossy runs diverged: %v vs %v", a, b)
	}
}

func TestAllPoliciesSurviveLoss(t *testing.T) {
	for _, policy := range []string{"circuitstart", "backtap", "slowstart"} {
		t.Run(policy, func(t *testing.T) {
			n, c := lossyNet(t, 0.03, 0, TransportOptions{Policy: policy})
			size := 50 * units.Kilobyte
			c.Transfer(size, nil)
			n.RunUntil(600 * sim.Second)
			if !c.Done() {
				t.Fatalf("%s incomplete: %v of %v", policy, c.Sink().Received(), size)
			}
		})
	}
}

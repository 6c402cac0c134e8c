package core

import (
	"crypto/sha256"
	"testing"
	"time"

	"circuitstart/internal/arena"
	"circuitstart/internal/netem"
	"circuitstart/internal/sim"
	"circuitstart/internal/units"
)

// trainNetwork builds a 3-relay arena-backed star with the given train
// size on every access link and one client→server circuit across it.
func trainNetwork(t *testing.T, trainSize int) (*arena.Arena, *Network, *Circuit) {
	t.Helper()
	ar := arena.New()
	n := NewNetworkInArena(ar, 1, func(clock *sim.Clock, _ *sim.RNG) netem.Fabric {
		return netem.NewStarFabric(clock)
	})
	acc := netem.Symmetric(units.Mbps(100), time.Millisecond, 0)
	acc.TrainSize = trainSize
	for _, id := range []netem.NodeID{"r1", "r2", "r3"} {
		n.MustAddRelay(id, acc)
	}
	c := n.MustBuildCircuit(CircuitSpec{
		Source: "client", Sink: "server",
		Relays:       []netem.NodeID{"r1", "r2", "r3"},
		SourceAccess: acc, SinkAccess: acc,
	})
	return ar, n, c
}

// TestTrainedTransferEventBudget pins the point of cell trains: the
// event count of a bulk transfer scales with the number of trains, not
// cells, so coalescing plus signal batching must cut the simulator's
// event budget by a multiple, not a margin. The untrained baseline runs
// ~10× more events; the bound asserts 2.5× so drift has headroom
// without letting a regression to per-cell event costs slip through.
func TestTrainedTransferEventBudget(t *testing.T) {
	run := func(trainSize int) uint64 {
		_, n, c := trainNetwork(t, trainSize)
		before := n.clock.Processed()
		c.Transfer(units.Megabyte, func(time.Duration) { n.clock.Stop() })
		n.Run()
		if !c.Done() {
			t.Fatal("transfer incomplete")
		}
		return n.clock.Processed() - before
	}
	trained := run(8)
	untrained := run(0)
	t.Logf("events per 1 MB transfer: trained %d, untrained %d", trained, untrained)
	if 2*untrained < 5*trained { // trained > 0.4 × untrained
		t.Errorf("trained transfer ran %d events vs %d untrained: coalescing below 2.5×", trained, untrained)
	}
}

// TestTrainedTransferCoalescesOnRelayLinks checks the achieved mean
// train length where it matters — the relay uplinks carrying the bulk
// data stream. Stretching must push it well past the ~1.8 equilibrium
// that formation-only coalescing gets stuck at under smooth arrivals.
func TestTrainedTransferCoalescesOnRelayLinks(t *testing.T) {
	_, n, c := trainNetwork(t, 8)
	c.Transfer(units.Megabyte, func(time.Duration) { n.clock.Stop() })
	n.Run()
	if !c.Done() {
		t.Fatal("transfer incomplete")
	}
	for _, id := range []netem.NodeID{"r1", "r2", "r3"} {
		up := n.Relay(id).Port().Uplink().Stats()
		if up.TailDrops != 0 {
			t.Errorf("%s uplink dropped %d frames on an uncontended link", id, up.TailDrops)
		}
		if mean := up.MeanTrainLen(); mean < 2.5 {
			t.Errorf("%s uplink mean train length %.2f, want ≥ 2.5", id, mean)
		}
		if up.TrainStretched == 0 {
			t.Errorf("%s uplink never stretched a train under a smooth bulk stream", id)
		}
	}
}

// TestSequentialTransfersReuseCellPool pins the arena contract on the
// batched hot path: after the first transfer builds the working set,
// repeat transfers on the same circuit draw every cell from the pool's
// free list — train frames recycle their cells on terminal delivery,
// so the allocation ledger stops growing.
func TestSequentialTransfersReuseCellPool(t *testing.T) {
	_, n, c := trainNetwork(t, 8)
	transfer := func() {
		c.Transfer(units.Megabyte, func(time.Duration) { n.clock.Stop() })
		n.Run()
		if !c.Done() {
			t.Fatal("transfer incomplete")
		}
	}
	transfer()
	warm := n.ar.Cells.Len()
	if warm == 0 {
		t.Fatal("cell pool unused: the data path is not drawing from the arena")
	}
	for i := 0; i < 2; i++ {
		transfer()
		if grew := n.ar.Cells.Len() - warm; grew != 0 {
			t.Fatalf("transfer %d allocated %d new cells past the warm working set of %d",
				i+2, grew, warm)
		}
	}
}

// TestSteadyStateTransferAllocBudget pins the whole per-cell path at
// once: after one warm-up transfer has grown every pool, ring and slot
// to its working set, a further 1 MB forward transfer over the trained
// 3-hop circuit (≈ 2,000 cells × 4 hops, ACKs and FEEDBACK included)
// costs at most one allocation — the transfer's own bookkeeping, not
// anything per cell. The run is bounded by a horizon, so a transfer
// that stalls fails here instead of hanging the suite.
func TestSteadyStateTransferAllocBudget(t *testing.T) {
	// The exit's digest verification snapshots a SHA-256 state per cell;
	// the budget holds only where that snapshot is allocation-free.
	h, snap := sha256.New(), []byte(nil)
	a, ok := h.(interface {
		AppendBinary([]byte) ([]byte, error)
	})
	if !ok || testing.AllocsPerRun(10, func() { snap, _ = a.AppendBinary(snap[:0]) }) != 0 {
		t.Skip("digest snapshots allocate in this build (before Go 1.24, or under the race detector)")
	}
	_, n, c := trainNetwork(t, 8)
	onDone := func(time.Duration) { n.clock.Stop() }
	transfer := func() {
		c.Transfer(units.Megabyte, onDone)
		n.RunUntil(n.Now() + 60*sim.Second)
		if !c.Done() {
			t.Fatal("transfer incomplete at the horizon")
		}
	}
	transfer()
	if avg := testing.AllocsPerRun(10, transfer); avg > 1 {
		t.Fatalf("steady-state 1 MB transfer allocates %.1f, want ≤ 1", avg)
	}
}

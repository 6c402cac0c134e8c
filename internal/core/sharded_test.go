package core

import (
	"testing"
	"time"

	"circuitstart/internal/arena"
	"circuitstart/internal/netem"
	"circuitstart/internal/sim"
	"circuitstart/internal/units"
)

// shardTestSpec is a four-switch line A—B—C—D with distinct positive
// trunk delays (every trunk is a legal partition cut) and one relay
// homed per switch. The client homes to A, the server to D, so a
// transfer crosses every trunk.
func shardTestSpec() netem.GraphSpec {
	return netem.GraphSpec{
		Switches: []netem.SwitchID{"A", "B", "C", "D"},
		Trunks: []netem.TrunkSpec{
			{A: "A", B: "B", Config: netem.SymmetricTrunk(units.Mbps(50), 4*time.Millisecond, 0)},
			{A: "B", B: "C", Config: netem.SymmetricTrunk(units.Mbps(40), 6*time.Millisecond, 0)},
			{A: "C", B: "D", Config: netem.SymmetricTrunk(units.Mbps(60), 5*time.Millisecond, 0)},
		},
		Homes: map[netem.NodeID]netem.SwitchID{
			"r1": "A", "r2": "B", "r3": "C", "r4": "D",
			"client": "A", "server": "D",
		},
	}
}

type shardRunResult struct {
	ttlb     time.Duration
	done     bool
	received units.DataSize
	trunks   []netem.LinkStats
	unknown  uint64
	cwnd     float64
}

// runUnshardedReference runs the reference single-clock trial.
func runUnshardedReference(t *testing.T, seed int64, size units.DataSize, horizon sim.Time) shardRunResult {
	t.Helper()
	spec := shardTestSpec()
	n := NewNetworkWithFabric(seed, func(clock *sim.Clock, lossRNG *sim.RNG) netem.Fabric {
		return spec.Build(clock, lossRNG)
	})
	access := netem.Symmetric(units.Mbps(30), 2*time.Millisecond, 0)
	for _, id := range []netem.NodeID{"r1", "r2", "r3", "r4"} {
		n.MustAddRelay(id, access)
	}
	c := n.MustBuildCircuit(CircuitSpec{
		Source: "client", Sink: "server",
		SourceAccess: access, SinkAccess: access,
		Relays: []netem.NodeID{"r1", "r2", "r3", "r4"},
	})
	c.Transfer(size, nil)
	n.RunUntil(horizon)
	var trunks []netem.LinkStats
	for _, l := range n.Fabric().Trunks() {
		trunks = append(trunks, l.Stats())
	}
	ttlb, done := c.ttlb, c.done
	return shardRunResult{
		ttlb: ttlb, done: done,
		received: c.Sink().Received(),
		trunks:   trunks,
		unknown:  n.Fabric().UnknownDst() + n.Fabric().Unroutable(),
		cwnd:     c.SourceSender().Cwnd(),
	}
}

// runSharded runs the same trial on the sharded engine.
func runSharded(t *testing.T, seed int64, shards int, size units.DataSize, horizon sim.Time) shardRunResult {
	t.Helper()
	spec := shardTestSpec()
	sn, err := NewShardedNetwork(seed, spec, shards, nil)
	if err != nil {
		t.Fatal(err)
	}
	access := netem.Symmetric(units.Mbps(30), 2*time.Millisecond, 0)
	for _, id := range []netem.NodeID{"r1", "r2", "r3", "r4"} {
		if _, err := sn.AddRelay(id, access); err != nil {
			t.Fatal(err)
		}
	}
	c, err := sn.BuildCircuit(CircuitSpec{
		Source: "client", Sink: "server",
		SourceAccess: access, SinkAccess: access,
		Relays: []netem.NodeID{"r1", "r2", "r3", "r4"},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.ScheduleTransfer(0, size, false, nil)
	sn.RunWindows(horizon, nil)
	var trunks []netem.LinkStats
	for _, l := range sn.Fabric().Trunks() {
		trunks = append(trunks, l.Stats())
	}
	ttlb, done := c.ttlb, c.done
	return shardRunResult{
		ttlb: ttlb, done: done,
		received: c.sink.Received(),
		trunks:   trunks,
		unknown:  sn.Fabric().UnknownDst() + sn.Fabric().Unroutable(),
		cwnd:     c.SourceSender().Cwnd(),
	}
}

// TestShardedMatchesUnsharded pins the tentpole determinism contract at
// the core layer: a cross-backbone transfer must produce identical
// TTLB, final cwnd and per-trunk stats on the unsharded engine and on
// the sharded engine at every shard count.
func TestShardedMatchesUnsharded(t *testing.T) {
	const seed = 7
	size := 300 * units.Kilobyte
	horizon := 20 * sim.Second
	want := runUnshardedReference(t, seed, size, horizon)
	if !want.done || want.received != size {
		t.Fatalf("reference run incomplete: %v of %v", want.received, size)
	}
	for _, shards := range []int{1, 2, 3, 4, 8} {
		got := runSharded(t, seed, shards, size, horizon)
		if got.done != want.done || got.ttlb != want.ttlb {
			t.Errorf("shards=%d: ttlb=%v done=%v, want %v %v", shards, got.ttlb, got.done, want.ttlb, want.done)
		}
		if got.received != want.received {
			t.Errorf("shards=%d: received %v, want %v", shards, got.received, want.received)
		}
		if got.cwnd != want.cwnd {
			t.Errorf("shards=%d: final cwnd %v, want %v", shards, got.cwnd, want.cwnd)
		}
		if got.unknown != want.unknown {
			t.Errorf("shards=%d: %d unknown/unroutable drops, want %d", shards, got.unknown, want.unknown)
		}
		for i := range want.trunks {
			if got.trunks[i] != want.trunks[i] {
				t.Errorf("shards=%d trunk %d: stats %+v, want %+v", shards, i, got.trunks[i], want.trunks[i])
			}
		}
	}
}

// TestShardedLookaheadNeverViolated installs the debug hook and asserts
// every imported handoff arrives strictly after the destination shard's
// parked clock — the conservative bound.
func TestShardedLookaheadNeverViolated(t *testing.T) {
	violations := 0
	netem.ShardLookaheadCheck = func(shard int, now, arrival sim.Time) {
		if !arrival.After(now) {
			violations++
			t.Errorf("shard %d: handoff arrival %v not after clock %v", shard, arrival, now)
		}
	}
	defer func() { netem.ShardLookaheadCheck = nil }()
	got := runSharded(t, 11, 4, 200*units.Kilobyte, 20*sim.Second)
	if !got.done {
		t.Fatal("transfer incomplete")
	}
	if violations != 0 {
		t.Fatalf("%d lookahead violations", violations)
	}
}

// TestShardedFrameLeakBalance: every frame handed across a boundary is
// recycled exactly once — after the trial drains, the shards' arenas
// balance as one, with every frame and segment wrapper free, and the
// export/import counters agree with empty boundary rings (which did fill: a
// frame dies into the source shard's pool at export and is reborn from
// the destination's at import, so both pools see every crossing).
func TestShardedFrameLeakBalance(t *testing.T) {
	spec := shardTestSpec()
	sn, err := NewShardedNetwork(3, spec, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	access := netem.Symmetric(units.Mbps(30), 2*time.Millisecond, 0)
	for _, id := range []netem.NodeID{"r1", "r2", "r3", "r4"} {
		if _, err := sn.AddRelay(id, access); err != nil {
			t.Fatal(err)
		}
	}
	c, err := sn.BuildCircuit(CircuitSpec{
		Source: "client", Sink: "server",
		SourceAccess: access, SinkAccess: access,
		Relays: []netem.NodeID{"r1", "r2", "r3", "r4"},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.ScheduleTransfer(0, 150*units.Kilobyte, false, nil)
	sn.RunWindows(30*sim.Second, nil)
	if !c.Done() {
		t.Fatal("transfer incomplete")
	}
	fab := sn.Fabric()
	if !fab.Idle() {
		t.Fatal("fabric not idle after the horizon")
	}
	if fab.Exported() == 0 {
		t.Fatal("no boundary traffic — test topology does not cut the path")
	}
	if fab.Exported() != fab.Imported() {
		t.Fatalf("exported %d frames but imported %d", fab.Exported(), fab.Imported())
	}
	if n := fab.PendingHandoffs(); n != 0 {
		t.Fatalf("%d frames still in the boundary rings after the run drained", n)
	}
	if fab.QueueHighWater() == 0 {
		t.Fatal("boundary rings never held a frame")
	}
	ars := make([]*arena.Arena, sn.numShards())
	for i := range ars {
		ars[i] = sn.shard(i).ar
	}
	if err := ars[0].Balance(ars[1:]...); err != nil {
		t.Fatal(err)
	}
}

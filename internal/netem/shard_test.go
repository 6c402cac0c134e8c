package netem

import (
	"testing"
	"time"

	"circuitstart/internal/sim"
	"circuitstart/internal/units"
)

// TestShardedWindowZeroAlloc pins the steady-state cost of a barrier
// cycle — admit the due handoffs, release both shards into the window,
// join them — at zero allocations, on a two-shard fabric whose one cut
// trunk is offered more than it can carry: every window exports and
// imports a full trunk's worth of frames and tail-drops the excess.
func TestShardedWindowZeroAlloc(t *testing.T) {
	spec := GraphSpec{
		Switches: []SwitchID{"east", "west"},
		Trunks: []TrunkSpec{{A: "east", B: "west",
			Config: TrunkConfig{Rate: units.Mbps(20), Delay: 2 * time.Millisecond, QueueCap: 16 * units.Kilobyte, TrainSize: 4}}},
		Homes: map[NodeID]SwitchID{"a": "west", "b": "east"},
	}
	plan, err := PartitionGraph(spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Shards != 2 || plan.Cut != 1 {
		t.Fatalf("plan %+v does not cut the trunk", plan)
	}
	clocks := []*sim.Clock{sim.NewClock(), sim.NewClock()}
	sf := NewShardedFabric(spec, plan, clocks, nil)
	access := Symmetric(units.Mbps(100), time.Millisecond, 0)
	received := 0
	src := sf.Shard(sf.ShardOf("a")).Attach("a", access, HandlerFunc(func(*Frame) {}), nil)
	sf.Shard(sf.ShardOf("b")).Attach("b", access, HandlerFunc(func(*Frame) { received++ }), nil)

	// 8 × 512 B every millisecond is 32.8 Mbit/s into a 20 Mbit/s trunk.
	srcClock := clocks[sf.ShardOf("a")]
	var offer func()
	offer = func() {
		for i := 0; i < 8; i++ {
			src.Send("b", 512, nil)
		}
		srcClock.After(time.Millisecond, offer)
	}
	srcClock.At(0, offer)

	sf.startWorkers()
	defer sf.stopWorkers()
	end := sim.Time(0)
	cycle := func() {
		end = end.Add(plan.Lookahead)
		sf.importUpTo(end)
		sf.runWindow(end)
	}
	for i := 0; i < 100; i++ {
		cycle() // rings, pools and heaps reach their working set
	}
	before := sf.Imported()
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Fatalf("a steady-state barrier cycle allocates %.1f times", avg)
	}
	if sf.Imported() == before || received == 0 {
		t.Fatalf("no handoff crossed during the measured cycles (imported %d, received %d)", sf.Imported(), received)
	}
	if drops := sf.Trunk("west", "east").Stats().TailDrops; drops == 0 {
		t.Fatalf("the cut trunk never tail-dropped: it was not saturated")
	}
}

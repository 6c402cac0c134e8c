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

// portRecorder is a FIFO scheduler that checks every frame a trunk
// accepts: a resolved destination port must be the one attached on the
// trunk's own shard. Each recorder is touched only by the goroutine of
// the shard that owns its trunk.
type portRecorder struct {
	t       *testing.T
	name    string
	shard   *GraphFabric
	q       []*Frame
	ported  int // frames carrying a port, all of them local
	remote  int // frames resolved to another shard's node
	crossed map[NodeID]int
}

func (r *portRecorder) Push(f *Frame) bool {
	switch {
	case f.dstSw == 0:
		r.t.Errorf("%s: frame to %q crossed a switch unresolved", r.name, f.Dst)
	case f.dstPort == nil:
		r.remote++
	case r.shard.Port(f.Dst) != f.dstPort:
		r.t.Errorf("%s: frame to %q carries a port from another shard", r.name, f.Dst)
	default:
		r.ported++
	}
	r.crossed[f.Dst]++
	r.q = append(r.q, f)
	return true
}

func (r *portRecorder) Pop() *Frame {
	f := r.q[0]
	r.q = r.q[1:]
	return f
}

func (r *portRecorder) Len() int { return len(r.q) }

func (r *portRecorder) PeekCirc() (uint32, bool) {
	if len(r.q) == 0 {
		return 0, false
	}
	return r.q[0].Circ, true
}

// TestShardedImportCarriesNoForeignPort: a frame resolves its
// destination at its first switch, and a frame imported over a cut
// trunk resolves again on the shard it arrives at. On the line A—B—C
// with B alone on shard 1, a→c resolves c's shard-0 port at A, transits
// shard 1 (where c is remote, so the frame must carry no port) and
// comes back to shard 0. Every frame still reaches its node. The CI
// race job runs it under the detector: the shards route concurrently.
func TestShardedImportCarriesNoForeignPort(t *testing.T) {
	cfg := SymmetricTrunk(units.Mbps(10), 2*time.Millisecond, 0)
	spec := GraphSpec{
		Switches: []SwitchID{"A", "B", "C"},
		Trunks:   []TrunkSpec{{A: "A", B: "B", Config: cfg}, {A: "B", B: "C", Config: cfg}},
		Homes:    map[NodeID]SwitchID{"a": "A", "b": "B", "c": "C"},
	}
	plan := ShardPlan{Shards: 2, Assign: map[SwitchID]int{"A": 0, "B": 1, "C": 0},
		Lookahead: 2 * time.Millisecond, Cut: 2, Trunks: 2}
	clocks := []*sim.Clock{sim.NewClock(), sim.NewClock()}
	sf := NewShardedFabric(spec, plan, clocks, nil)

	recorders := map[string]*portRecorder{}
	for _, ab := range [][2]SwitchID{{"A", "B"}, {"B", "A"}, {"B", "C"}, {"C", "B"}} {
		l := sf.Trunk(ab[0], ab[1])
		r := &portRecorder{t: t, name: l.Name(), shard: sf.Shard(sf.ShardOfSwitch(ab[0])), crossed: map[NodeID]int{}}
		l.SetScheduler(r)
		recorders[l.Name()] = r
	}

	access := Symmetric(units.Mbps(100), time.Millisecond, 0)
	got := make([]map[NodeID]int, 2) // per receiving shard: deliveries per destination
	ports := map[NodeID]*Port{}
	for _, id := range []NodeID{"a", "b", "c"} {
		shard := sf.ShardOf(id)
		if got[shard] == nil {
			got[shard] = map[NodeID]int{}
		}
		seen := got[shard]
		ports[id] = sf.Shard(shard).Attach(id, access, HandlerFunc(func(f *Frame) { seen[f.Dst]++ }), nil)
	}
	const burst = 20
	sends := [][2]NodeID{{"a", "c"}, {"c", "a"}, {"a", "b"}, {"b", "c"}}
	for _, s := range sends {
		src, dst := ports[s[0]], s[1]
		clocks[sf.ShardOf(s[0])].At(0, func() {
			for i := 0; i < burst; i++ {
				src.Send(dst, 512, nil)
			}
		})
	}
	sf.RunWindows(sim.Time(0).Add(time.Second), nil)

	want := map[NodeID]int{"a": burst, "b": burst, "c": 2 * burst}
	for id, n := range want {
		if d := got[sf.ShardOf(id)][id]; d != n {
			t.Errorf("%q received %d frames, want %d", id, d, n)
		}
	}
	// The transit: frames to c left A resolved to c's port and crossed
	// B>C, on shard 1, resolved to c's home alone.
	if ab := recorders["trunk:A>B"]; ab.crossed["c"] != burst || ab.ported < burst {
		t.Errorf("trunk:A>B carried %d frames to c, %d with a local port; want %d of each", ab.crossed["c"], ab.ported, burst)
	}
	if bc := recorders["trunk:B>C"]; bc.crossed["c"] != 2*burst || bc.remote != 2*burst || bc.ported != 0 {
		t.Errorf("trunk:B>C carried %d frames to c (%d remote, %d with a port); want %d remote", bc.crossed["c"], bc.remote, bc.ported, 2*burst)
	}
	if sf.UnknownDst()+sf.Unroutable() != 0 || sf.PendingHandoffs() != 0 {
		t.Errorf("unknown %d, unroutable %d, pending %d: want all zero", sf.UnknownDst(), sf.Unroutable(), sf.PendingHandoffs())
	}
}

package netem

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"circuitstart/internal/sim"
	"circuitstart/internal/units"
)

// Backbone shapes the partition tests generate.
const (
	shapeRing = iota
	shapeLine
	shapeMesh
	shapeRandom
	numShapes
)

// partitionSpec builds an n-switch backbone of the given shape. Bit i of
// zero gives trunk i a zero delay (so its ends must share a shard);
// every other trunk has a positive one. shapeRandom is a line plus
// chords drawn from seed, so it is connected but irregular.
func partitionSpec(shape, n int, zero uint64, seed int64) GraphSpec {
	gs := GraphSpec{}
	for i := 0; i < n; i++ {
		gs.Switches = append(gs.Switches, SwitchID(fmt.Sprintf("sw-%02d", i)))
	}
	trunk := func(a, b int) {
		delay := time.Duration(1+len(gs.Trunks)%3) * time.Millisecond
		if zero>>(uint(len(gs.Trunks))%64)&1 == 1 {
			delay = 0
		}
		gs.Trunks = append(gs.Trunks, TrunkSpec{A: gs.Switches[a], B: gs.Switches[b],
			Config: SymmetricTrunk(units.Mbps(100), delay, 0)})
	}
	switch shape {
	case shapeRing, shapeLine:
		for i := 0; i+1 < n; i++ {
			trunk(i, i+1)
		}
		if shape == shapeRing && n > 2 {
			trunk(n-1, 0)
		}
	case shapeMesh:
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				trunk(i, j)
			}
		}
	case shapeRandom:
		for i := 0; i+1 < n; i++ {
			trunk(i, i+1)
		}
		rng := sim.NewRNG(seed, "partition-chords")
		for i := 0; i < n; i++ {
			a, b := int(rng.Int63n(int64(n))), int(rng.Int63n(int64(n)))
			if a != b && !gs.HasTrunk(gs.Switches[a], gs.Switches[b]) {
				trunk(a, b)
			}
		}
	}
	return gs
}

// contracted returns each switch's zero-delay component (named by its
// lowest switch) and the size of the largest one.
func contracted(gs GraphSpec) (comp map[SwitchID]SwitchID, largest int) {
	comp = make(map[SwitchID]SwitchID, len(gs.Switches))
	for _, s := range gs.Switches {
		comp[s] = s
	}
	for changed := true; changed; {
		changed = false
		for _, t := range gs.Trunks {
			if t.Config.Delay != 0 || comp[t.A] == comp[t.B] {
				continue
			}
			lo, hi := comp[t.A], comp[t.B]
			if hi < lo {
				lo, hi = hi, lo
			}
			for s, c := range comp {
				if c == hi {
					comp[s] = lo
				}
			}
			changed = true
		}
	}
	sizes := make(map[SwitchID]int)
	for _, c := range comp {
		sizes[c]++
		if sizes[c] > largest {
			largest = sizes[c]
		}
	}
	return comp, largest
}

// roundRobinCut is the assignment PartitionGraph used before it grew
// regions — contracted components dealt largest first to the lightest
// shard, with no regard for adjacency — kept as the reference the new
// plans must never cut more trunks than. It returns the cut count.
func roundRobinCut(gs GraphSpec, shards int) int {
	comp, _ := contracted(gs)
	members := make(map[SwitchID][]SwitchID)
	for _, s := range gs.Switches {
		members[comp[s]] = append(members[comp[s]], s)
	}
	roots := make([]SwitchID, 0, len(members))
	for r := range members {
		roots = append(roots, r)
	}
	sort.Slice(roots, func(i, j int) bool {
		if len(members[roots[i]]) != len(members[roots[j]]) {
			return len(members[roots[i]]) > len(members[roots[j]])
		}
		return roots[i] < roots[j]
	})
	k := shards
	if k > len(roots) {
		k = len(roots)
	}
	assign := make(map[SwitchID]int, len(gs.Switches))
	load := make([]int, k)
	for _, r := range roots {
		lightest := 0
		for i := 1; i < k; i++ {
			if load[i] < load[lightest] {
				lightest = i
			}
		}
		for _, s := range members[r] {
			assign[s] = lightest
		}
		load[lightest] += len(members[r])
	}
	cut := 0
	for _, t := range gs.Trunks {
		if assign[t.A] != assign[t.B] {
			cut++
		}
	}
	return cut
}

// checkPlan asserts what every plan must satisfy, whatever the graph:
// each switch assigned once to a shard in [0, Shards), every shard used,
// no zero-delay trunk cut, every shard's size within one (largest)
// contracted component of the even share n/k, the reported counts and
// lookahead true to the assignment, and the same plan on every call.
func checkPlan(t *testing.T, gs GraphSpec, shards int) ShardPlan {
	t.Helper()
	plan, err := PartitionGraph(gs, shards)
	if err != nil {
		t.Fatal(err)
	}
	comp, largest := contracted(gs)
	comps := make(map[SwitchID]bool)
	for _, c := range comp {
		comps[c] = true
	}
	want := shards
	if want > len(comps) {
		want = len(comps)
	}
	if plan.Shards != want {
		t.Fatalf("plan uses %d shards, want min(%d, %d components)", plan.Shards, shards, len(comps))
	}
	if len(plan.Assign) != len(gs.Switches) {
		t.Fatalf("plan assigns %d of %d switches", len(plan.Assign), len(gs.Switches))
	}
	sizes := make([]int, plan.Shards)
	for _, s := range gs.Switches {
		shard, ok := plan.Assign[s]
		if !ok || shard < 0 || shard >= plan.Shards {
			t.Fatalf("switch %q on shard %d (assigned %v) of %d", s, shard, ok, plan.Shards)
		}
		sizes[shard]++
	}
	n, k := len(gs.Switches), plan.Shards
	for shard, size := range sizes {
		if size == 0 {
			t.Fatalf("shard %d of %d is empty: sizes %v", shard, k, sizes)
		}
		if d := size*k - n; d > largest*k || -d > largest*k {
			t.Fatalf("shard %d holds %d switches, more than one component (%d) from the even share %d/%d: sizes %v",
				shard, size, largest, n, k, sizes)
		}
	}
	cut, look := 0, time.Duration(0)
	for _, tr := range gs.Trunks {
		if plan.Assign[tr.A] == plan.Assign[tr.B] {
			continue
		}
		if tr.Config.Delay == 0 {
			t.Fatalf("zero-delay trunk %s-%s is cut", tr.A, tr.B)
		}
		cut++
		if look == 0 || tr.Config.Delay < look {
			look = tr.Config.Delay
		}
	}
	if plan.Cut != cut || plan.Trunks != len(gs.Trunks) || plan.Lookahead != look {
		t.Fatalf("plan reports cut %d/%d lookahead %v, the assignment has %d/%d and %v",
			plan.Cut, plan.Trunks, plan.Lookahead, cut, len(gs.Trunks), look)
	}
	for i := 0; i < 100; i++ {
		again, err := PartitionGraph(gs, shards)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plan, again) {
			t.Fatalf("call %d returned a different plan:\n%+v\n%+v", i+2, plan, again)
		}
	}
	return plan
}

// TestPartitionGraphCutsAndBalance walks rings, lines and meshes of
// uniform positive delay through every shard count: beyond checkPlan's
// invariants, shard sizes differ by at most one switch, k ≥ 2 shards cut
// exactly k trunks of a ring and k − 1 of a line (the fewest any
// partition into k parts can), and no plan cuts more than round-robin.
func TestPartitionGraphCutsAndBalance(t *testing.T) {
	for shape := shapeRing; shape <= shapeMesh; shape++ {
		for n := 1; n <= 17; n++ {
			gs := partitionSpec(shape, n, 0, 0)
			for shards := 1; shards <= 6; shards++ {
				plan := checkPlan(t, gs, shards)
				sizes := make([]int, plan.Shards)
				for _, s := range plan.Assign {
					sizes[s]++
				}
				sort.Ints(sizes)
				if sizes[len(sizes)-1]-sizes[0] > 1 {
					t.Errorf("shape %d n=%d shards=%d: sizes %v differ by more than one", shape, n, shards, sizes)
				}
				if k := plan.Shards; k >= 2 {
					switch {
					case shape == shapeRing && n > 2 && plan.Cut != k:
						t.Errorf("ring of %d at %d shards cuts %d trunks, want %d", n, k, plan.Cut, k)
					case shape == shapeLine && plan.Cut != k-1:
						t.Errorf("line of %d at %d shards cuts %d trunks, want %d", n, k, plan.Cut, k-1)
					}
				}
				if old := roundRobinCut(gs, shards); plan.Cut > old {
					t.Errorf("shape %d n=%d shards=%d: cuts %d trunks, round-robin cut %d", shape, n, shards, plan.Cut, old)
				}
			}
		}
	}
}

// TestPartitionGraphBenchmarkRing pins the plan the scale_sharded
// benchmark workload and the scale ablation run on: a 16-switch ring
// splits into arcs.
func TestPartitionGraphBenchmarkRing(t *testing.T) {
	gs := partitionSpec(shapeRing, 16, 0, 0)
	for _, tc := range []struct{ shards, cut int }{{1, 0}, {2, 2}, {4, 4}, {8, 8}, {16, 16}} {
		if plan := checkPlan(t, gs, tc.shards); plan.Cut != tc.cut {
			t.Errorf("16-switch ring at %d shards cuts %d of %d trunks, want %d", tc.shards, plan.Cut, plan.Trunks, tc.cut)
		}
	}
}

func TestPartitionGraphRejectsBadInput(t *testing.T) {
	gs := partitionSpec(shapeRing, 4, 0, 0)
	if _, err := PartitionGraph(gs, 0); err == nil {
		t.Error("zero shards accepted")
	}
	gs.Trunks[0].A = "nowhere"
	if _, err := PartitionGraph(gs, 2); err == nil {
		t.Error("invalid spec accepted")
	}
}

// FuzzPartitionGraph drives checkPlan over generated backbones of every
// shape with arbitrary zero-delay trunks, and holds rings and lines —
// where contiguous regions are provably cut-minimal — to cutting no
// more trunks than round-robin did. (On a mesh the cut count is a
// function of the shard sizes alone and rises with balance, so the
// comparison says nothing there.)
func FuzzPartitionGraph(f *testing.F) {
	f.Add(uint8(shapeRing), uint8(16), uint8(2), uint64(0), int64(0))
	f.Add(uint8(shapeRing), uint8(5), uint8(3), uint64(0b10010), int64(0))
	f.Add(uint8(shapeLine), uint8(9), uint8(4), uint64(0b1), int64(0))
	f.Add(uint8(shapeMesh), uint8(6), uint8(3), uint64(0b100100), int64(0))
	f.Add(uint8(shapeRandom), uint8(12), uint8(5), uint64(0b1010), int64(7))
	f.Fuzz(func(t *testing.T, shape, n, shards uint8, zero uint64, seed int64) {
		shape %= numShapes
		gs := partitionSpec(int(shape), 1+int(n)%24, zero, seed)
		k := 1 + int(shards)%8
		plan := checkPlan(t, gs, k)
		if shape == shapeRing || shape == shapeLine {
			if old := roundRobinCut(gs, k); plan.Cut > old {
				t.Fatalf("cuts %d trunks, round-robin cut %d", plan.Cut, old)
			}
		}
	})
}

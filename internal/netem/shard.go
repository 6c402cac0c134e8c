package netem

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"circuitstart/internal/sim"
	"circuitstart/internal/units"
)

// This file implements conservative-lookahead parallel execution of a
// GraphFabric: the backbone is partitioned into shards, each shard owns
// its own sim.Clock and runs its event loop on its own goroutine, and
// the only coupling between shards is the propagation delay of the
// trunks cut by the partition. Because a frame serialized on a cut
// trunk at instant s cannot arrive before s + Delay, and every cut
// trunk's delay is at least the global lookahead L, all shards can
// safely advance one window of width L in parallel: nothing a neighbor
// does during the window can affect this shard before the window ends.
//
// Execution is barrier-synchronous. At each barrier every shard clock
// is parked at the same instant W; the coordinator admits, boundary by
// boundary, the handoffs that arrive by W + L to their destination
// shards and releases the shards to run to W + L. Every trunk delivery
// — handed off or local to a shard — fires under a key made of its
// arrival instant, its serialization end, the trunk's lane (its place in
// the global trunk order) and a per-trunk count, none of which depends
// on how the graph was cut; deliveries that tie on the two instants
// therefore fire in lane order under every plan, which is what makes
// results byte-identical for any plan, the one-shard plan included.

// maxShardedTrunks is the most trunks a sharded fabric can carry: each
// direction of a trunk takes one of the 16-bit lanes of sim.LaneKey.
const maxShardedTrunks = math.MaxUint16 / 2

// ShardPlan assigns every switch of a GraphSpec to a shard and records
// the conservative lookahead bound the assignment induces.
type ShardPlan struct {
	// Shards is the number of shards actually used (≤ the requested
	// count when the graph has fewer zero-delay-connected components).
	Shards int
	// Assign maps every switch to its shard in [0, Shards).
	Assign map[SwitchID]int
	// Lookahead is the minimum propagation delay over cut trunks —
	// the window width. Zero when the plan has a single shard (no cuts).
	Lookahead time.Duration
	// Cut counts the trunks whose ends lie on different shards, Trunks
	// every trunk of the spec. Each frame crossing a cut trunk is a
	// handoff through the coordinator, so Cut of Trunks is the share of
	// the backbone that pays for the partition.
	Cut, Trunks int
}

// PartitionGraph partitions a spec's switches into at most the given
// number of shards. Zero-delay trunks are contracted first (a
// zero-delay cut would leave no lookahead); the effective shard count
// is min(shards, number of contracted components). Each shard is then
// a region grown over trunk adjacency: it starts at the lowest
// unassigned component next to the previous shard's region (the lowest
// of all for the first shard, or when nothing adjacent is left) and
// takes components breadth-first, neighbors in switch order, for as
// long as that brings the running total of assigned switches closer to
// its even share (s+1)·n/k. Regions are therefore contiguous wherever
// the backbone allows it — k arcs on a ring cut k trunks, k runs of a
// line k − 1 — every shard's size is within one component of n/k, and
// the plan is a pure function of (spec, shards): no step iterates a map.
func PartitionGraph(gs GraphSpec, shards int) (ShardPlan, error) {
	if err := gs.Validate(); err != nil {
		return ShardPlan{}, err
	}
	if shards < 1 {
		return ShardPlan{}, fmt.Errorf("netem: PartitionGraph with %d shards", shards)
	}
	if len(gs.Trunks) > maxShardedTrunks {
		return ShardPlan{}, fmt.Errorf("netem: %d trunks, a sharded fabric orders at most %d", len(gs.Trunks), maxShardedTrunks)
	}

	// Union-find over switches in sorted order, contracting zero-delay
	// trunks. A component's root is its lowest switch, so numbering the
	// roots in switch order numbers the components by lowest member.
	order := append([]SwitchID(nil), gs.Switches...)
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	index := make(map[SwitchID]int, len(order))
	for i, s := range order {
		index[s] = i
	}
	parent := make([]int, len(order))
	for i := range parent {
		parent[i] = i
	}
	find := func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	for _, t := range gs.Trunks {
		if t.Config.Delay == 0 {
			a, b := find(index[t.A]), find(index[t.B])
			if a > b {
				a, b = b, a
			}
			parent[b] = a
		}
	}
	compOf := make([]int, len(order)) // switch index → component
	var size []int                    // component → switches in it
	for i := range order {
		if r := find(i); r == i {
			compOf[i] = len(size)
			size = append(size, 1)
		} else {
			compOf[i] = compOf[r]
			size[compOf[r]]++
		}
	}
	adj := make([][]int, len(size))
	for _, t := range gs.Trunks {
		if a, b := compOf[index[t.A]], compOf[index[t.B]]; a != b {
			adj[a] = append(adj[a], b)
			adj[b] = append(adj[b], a)
		}
	}
	for _, nb := range adj {
		sort.Ints(nb)
	}

	k := shards
	if k > len(size) {
		k = len(size)
	}
	const unassigned = -1
	shardOf := make([]int, len(size))
	for c := range shardOf {
		shardOf[c] = unassigned
	}
	lowest := 0       // every component below it is assigned
	left := len(size) // components still unassigned
	n := len(order)   // switches in all
	done := 0         // switches assigned so far
	var region, frontier []int
	for s := 0; s < k; s++ {
		seed := unassigned
		for _, c := range region {
			for _, nb := range adj[c] {
				if shardOf[nb] == unassigned && (seed == unassigned || nb < seed) {
					seed = nb
				}
			}
		}
		region, frontier = region[:0], frontier[:0]
		for left > 0 {
			if len(frontier) == 0 {
				// First component of the region, or the region has
				// swallowed everything it touches: go on from the lowest
				// component left.
				if seed == unassigned {
					for shardOf[lowest] != unassigned {
						lowest++
					}
					seed = lowest
				}
				frontier = append(frontier, seed)
				seed = unassigned
			}
			c := frontier[0]
			frontier = frontier[1:]
			if shardOf[c] != unassigned {
				continue // reached twice before it was taken
			}
			if s < k-1 && len(region) > 0 {
				// Every later shard needs a component, and this one stops
				// where taking c would leave its total further from the
				// even share than not taking it (ties take).
				if left <= k-1-s || k*(2*done+size[c]) > 2*(s+1)*n {
					break
				}
			}
			shardOf[c] = s
			region = append(region, c)
			done += size[c]
			left--
			for _, nb := range adj[c] {
				if shardOf[nb] == unassigned {
					frontier = append(frontier, nb)
				}
			}
		}
	}

	plan := ShardPlan{Shards: k, Assign: make(map[SwitchID]int, len(order)), Trunks: len(gs.Trunks)}
	for i, sw := range order {
		plan.Assign[sw] = shardOf[compOf[i]]
	}
	for _, t := range gs.Trunks {
		if plan.Assign[t.A] != plan.Assign[t.B] {
			plan.Cut++
			if plan.Lookahead == 0 || t.Config.Delay < plan.Lookahead {
				plan.Lookahead = t.Config.Delay
			}
		}
	}
	return plan, nil
}

// handoffFrame is one frame's payload-bearing fields, detached from the
// *Frame (which is recycled into the source shard's pool at export) and
// re-materialized from the destination shard's pool at import. A
// handoff — one boundary delivery: a frame, or a whole surviving train,
// that finished serializing on a cut trunk — is a run of these; like a
// train in a link's propagation FIFO, the first of the run carries its
// length and the key the delivery fires under.
type handoffFrame struct {
	src, dst NodeID
	size     units.DataSize
	payload  any
	circ     uint32
	priority bool

	trainLen int32
	key      sim.Key
}

// handoffRing is a growable FIFO ring of handoff frames, held by value:
// once it has reached its working set, pushing and popping allocate
// nothing. Capacity is a power of two so the wrap is a mask.
type handoffRing struct {
	buf  []handoffFrame
	head int
	n    int
}

func (r *handoffRing) len() int { return r.n }

// push appends a zero slot for the caller to fill in place.
func (r *handoffRing) push() *handoffFrame {
	if r.n == len(r.buf) {
		size := len(r.buf) * 2
		if size == 0 {
			size = 16
		}
		buf := make([]handoffFrame, size)
		for i := 0; i < r.n; i++ {
			buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
		}
		r.buf, r.head = buf, 0
	}
	h := &r.buf[(r.head+r.n)&(len(r.buf)-1)]
	r.n++
	return h
}

// peek returns the oldest slot; the ring must not be empty.
func (r *handoffRing) peek() *handoffFrame { return &r.buf[r.head] }

// drop removes the oldest slot, clearing it so the ring does not pin the
// payload.
func (r *handoffRing) drop() {
	r.buf[r.head] = handoffFrame{}
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
}

// ShardLookaheadCheck is a test-only debug hook: when non-nil it is
// invoked for every imported handoff with the destination shard, that
// shard's parked clock, and the handoff's arrival instant. The
// conservative bound requires arrival to be strictly in the future; the
// property test installs a hook that asserts exactly that. It is called
// only from the coordinator (all shard goroutines parked), so a plain
// package variable is race-free as long as tests set it before running.
var ShardLookaheadCheck func(shard int, clockNow, arrival sim.Time)

// boundary is one cut-trunk direction: the egress link lives on the
// source shard (serialization, queueing, drops and loss all happen
// there, on the source clock), and completed serializations append to
// out. At a barrier the coordinator moves the handoffs due in the next
// window to in, which the destination shard delivers from during the
// window — one pending event per boundary, like a link's propagation
// FIFO. out is touched by the source shard's goroutine during windows,
// in by the destination's, and both by the coordinator between windows;
// the barrier orders the three, so no lock is needed.
type boundary struct {
	link     *Link
	src, dst *GraphFabric // the egress link's shard and the ingress switch's
	to       int          // dst's index
	dstSw    *gswitch     // ingress switch, on dst

	out, in   handoffRing
	importFn  func() // deliverHead bound once
	exported  uint64
	highWater int
}

// export is the boundary link's export callback: it detaches a surviving
// train from its frames, which die here, on the source shard.
func (b *boundary) export(fs []*Frame, key sim.Key) {
	for i, f := range fs {
		h := b.out.push()
		h.src, h.dst, h.size = f.Src, f.Dst, f.Size
		h.payload, h.circ, h.priority = f.Payload, f.Circ, f.Priority
		if i == 0 {
			h.trainLen, h.key = int32(len(fs)), key
		}
		f.Payload = nil // payload migrates
		b.src.pool.Put(f)
	}
	b.exported += uint64(len(fs))
	if n := b.out.len(); n > b.highWater {
		b.highWater = n
	}
}

// admit moves the handoffs arriving by end from out to in, crediting
// their delivery to the egress link, and arms the import event if none
// is pending. It runs on the coordinator, with both shards parked:
// crediting stats inside the destination shard's window would race with
// the source shard serializing more frames. It returns the number of
// frames moved.
func (b *boundary) admit(end sim.Time) (frames uint64) {
	idle := b.in.len() == 0
	for b.out.len() > 0 && !b.out.peek().key.At().After(end) {
		head := b.out.peek()
		if ShardLookaheadCheck != nil {
			ShardLookaheadCheck(b.to, b.dst.clock.Now(), head.key.At())
		}
		n := int(head.trainLen)
		var bytes units.DataSize
		for i := 0; i < n; i++ {
			h := b.out.peek()
			bytes += h.size
			*b.in.push() = *h
			b.out.drop()
		}
		b.link.stats.CellsDelivered += uint64(n)
		b.link.stats.TrainsDelivered++
		b.link.stats.BytesOut += bytes
		frames += uint64(n)
	}
	if idle && b.in.len() > 0 {
		b.dst.clock.AtKey(b.in.peek().key, b.importFn)
	}
	return frames
}

// deliverHead is the boundary's import event, on the destination shard:
// the oldest admitted handoff re-materializes from the destination pool
// and enters the ingress switch, exactly as the egress link's delivery
// event would have handed it over on one clock.
func (b *boundary) deliverHead() {
	g := b.dst
	for n := b.in.peek().trainLen; n > 0; n-- {
		h := b.in.peek()
		f := g.pool.Get()
		f.Src, f.Dst, f.Size = h.src, h.dst, h.size
		f.Payload, f.Priority, f.Circ = h.payload, h.priority, h.circ
		b.in.drop()
		g.routeFrom(b.dstSw, f)
	}
	if b.in.len() > 0 {
		g.clock.AtKey(b.in.peek().key, b.importFn)
	}
}

// nodeInfo is the sharded fabric's global registry entry for an
// attached node.
type nodeInfo struct {
	shard int
	home  SwitchID
	port  *Port
}

// ShardedFabric runs one GraphFabric partitioned across per-core
// shards. Each shard is a real *GraphFabric (same switch, trunk and
// link machinery as the unsharded engine) carrying globally-computed
// next-hop tables; cut trunks become boundary egress links whose
// deliveries hand off through the coordinator. Nodes attach to the
// shard owning their home switch; the global registry keeps routing,
// path queries and stats identical to the unsharded fabric.
type ShardedFabric struct {
	spec GraphSpec
	plan ShardPlan

	shards []*GraphFabric
	// oracle is a full single-clock fabric built from the same spec. It
	// carries no nodes and no traffic — it exists so global routes come
	// from the exact same Dijkstra (same tie-breaks) the unsharded
	// engine runs, and so Home resolution hashes over the same global
	// switch order.
	oracle *GraphFabric

	trunkDir   map[[2]SwitchID]*Link // directed trunk → live link on its owning shard
	trunkOrder [][2]SwitchID         // global deterministic order (matches unsharded Trunks)
	boundaries []*boundary
	nodes      map[NodeID]nodeInfo

	imported uint64

	// Per-run accounting (see RunStats) and the workers that run the
	// shards' windows: one goroutine per shard for the length of a
	// RunWindows call, released into each window through its start
	// channel and joined through windowDone.
	wall       time.Duration
	busy       []time.Duration
	start      []chan sim.Time
	windowDone sync.WaitGroup
	workers    sync.WaitGroup

	// window, when nonzero, overrides plan.Lookahead as the barrier
	// stride. Scenario engines set it to a partition-independent value
	// (GraphSpec.MinPositiveTrunkDelay) so the barrier schedule — and
	// therefore every barrier-timed decision — is identical at every
	// shard count, including one, where the lookahead itself is zero.
	window time.Duration
}

// NewShardedFabric builds the sharded fabric. clocks supplies one clock
// per shard (len(clocks) must equal plan.Shards); each shard's links,
// relays and endpoints schedule exclusively on their own clock. rng
// drives trunk loss processes exactly as in GraphSpec.Build — sharded
// scenarios validate trunk loss away, but the parameter keeps the
// construction signature parallel.
func NewShardedFabric(spec GraphSpec, plan ShardPlan, clocks []*sim.Clock, rng *sim.RNG) *ShardedFabric {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	if len(clocks) != plan.Shards {
		panic(fmt.Sprintf("netem: %d clocks for %d shards", len(clocks), plan.Shards))
	}
	if len(spec.Trunks) > maxShardedTrunks {
		panic(fmt.Sprintf("netem: %d trunks, a sharded fabric orders at most %d", len(spec.Trunks), maxShardedTrunks))
	}
	sf := &ShardedFabric{
		spec:     spec,
		plan:     plan,
		oracle:   spec.Build(sim.NewClock(), nil),
		trunkDir: make(map[[2]SwitchID]*Link),
		nodes:    make(map[NodeID]nodeInfo),
		busy:     make([]time.Duration, plan.Shards),
	}
	sf.oracle.Switches() // force freeze: routes + global order

	cfgOf := make(map[[2]SwitchID]TrunkConfig, 2*len(spec.Trunks))
	for _, t := range spec.Trunks {
		cfgOf[[2]SwitchID{t.A, t.B}] = t.Config
		cfgOf[[2]SwitchID{t.B, t.A}] = t.Config
	}

	// Per-shard fabrics: local switches with global next-hop tables,
	// frozen from birth so nothing recomputes routes over the partial
	// topology. order is the global order so unpinned nodes hash to the
	// same home switch as on the unsharded fabric.
	sf.shards = make([]*GraphFabric, plan.Shards)
	for i := range sf.shards {
		g := &GraphFabric{
			clock:    clocks[i],
			switches: make(map[SwitchID]*gswitch),
			order:    append([]SwitchID(nil), sf.oracle.order...),
			frozen:   true,
			ports:    make(map[NodeID]*Port),
			pinned:   make(map[NodeID]SwitchID),
			homes:    make(map[NodeID]SwitchID),
			pool:     NewFramePool(),
		}
		for node, sw := range spec.Homes {
			g.pinned[node] = sw
		}
		g.remoteHome = func(id NodeID) (SwitchID, bool) {
			ni, ok := sf.nodes[id]
			if !ok {
				return "", false
			}
			return ni.home, true
		}
		shard := i
		g.onAttach = func(id NodeID, home SwitchID, p *Port) {
			sf.nodes[id] = nodeInfo{shard: shard, home: home, port: p}
		}
		sf.shards[i] = g
	}
	for sw, shard := range plan.Assign {
		g := sf.shards[shard]
		g.switches[sw] = &gswitch{
			id:   sw,
			out:  make(map[SwitchID]*Link),
			next: make(map[SwitchID]SwitchID, len(sf.oracle.switches[sw].next)),
		}
		for dst, nh := range sf.oracle.switches[sw].next {
			g.switches[sw].next[dst] = nh
		}
	}

	// Trunks in the global deterministic order (source switch sorted,
	// then destination sorted) — the same order the unsharded fabric's
	// freeze produces, so Trunks() and every stats table line up. A
	// trunk's place in it, plus one, is its lane: the order in which
	// deliveries from different trunks fire when they tie on instant and
	// origin, whatever the plan cut.
	for _, a := range sf.oracle.order {
		for _, b := range sf.oracle.neighbors(sf.oracle.switches[a]) {
			from, to := plan.Assign[a], plan.Assign[b]
			g := sf.shards[from]
			cfg := cfgOf[[2]SwitchID{a, b}]
			lc := LinkConfig{Rate: cfg.Rate, Delay: cfg.Delay, QueueCap: cfg.QueueCap,
				LossProb: cfg.LossProb, RNG: rng, TrainSize: cfg.TrainSize}
			var lnk *Link
			if to == from {
				lnk = NewLink(trunkName(a, b), g.clock, lc, &switchIngress{g: g, sw: g.switches[b]})
			} else {
				lnk = NewLink(trunkName(a, b), g.clock, lc, deadEnd{name: trunkName(a, b)})
				bd := &boundary{link: lnk, src: g, dst: sf.shards[to], to: to,
					dstSw: sf.shards[to].switches[b]}
				bd.importFn = bd.deliverHead
				lnk.export = bd.export
				sf.boundaries = append(sf.boundaries, bd)
			}
			lnk.lane = uint16(len(sf.trunkOrder) + 1)
			lnk.UsePool(g.pool, false)
			g.switches[a].out[b] = lnk
			g.trunks = append(g.trunks, lnk)
			sf.trunkDir[[2]SwitchID{a, b}] = lnk
			sf.trunkOrder = append(sf.trunkOrder, [2]SwitchID{a, b})
		}
	}
	return sf
}

// deadEnd is the destination handler of a boundary egress link. The
// export path intercepts every surviving frame at serialization end, so
// local delivery on such a link is a bug.
type deadEnd struct{ name string }

func (d deadEnd) Deliver(*Frame) {
	panic(fmt.Sprintf("netem: boundary link %q delivered locally", d.name))
}

// Plan returns the shard plan the fabric was built from.
func (sf *ShardedFabric) Plan() ShardPlan { return sf.plan }

// Lookahead returns the conservative window width.
func (sf *ShardedFabric) Lookahead() time.Duration { return sf.plan.Lookahead }

// SetWindow overrides the barrier stride. The stride must be positive
// and must not exceed the plan's lookahead (when the plan has cuts) —
// a wider window would let a neighbor's frame arrive inside it,
// violating the conservative bound. Single-shard plans accept any
// positive stride: with no cuts there is nothing to violate, and the
// stride only pins where barriers fall.
func (sf *ShardedFabric) SetWindow(d time.Duration) {
	if d <= 0 {
		panic(fmt.Sprintf("netem: SetWindow(%v)", d))
	}
	if l := sf.plan.Lookahead; l > 0 && d > l {
		panic(fmt.Sprintf("netem: window %v exceeds lookahead %v", d, l))
	}
	sf.window = d
}

// NumShards returns the effective shard count.
func (sf *ShardedFabric) NumShards() int { return len(sf.shards) }

// Shard returns shard i's fabric. Relays and endpoints attach through
// it; everything it schedules lands on shard i's clock.
func (sf *ShardedFabric) Shard(i int) *GraphFabric { return sf.shards[i] }

// ShardOfSwitch returns the shard owning a switch.
func (sf *ShardedFabric) ShardOfSwitch(sw SwitchID) int { return sf.plan.Assign[sw] }

// HomeOf returns the switch a node homes (or would home) to, resolved
// exactly as the unsharded fabric resolves it.
func (sf *ShardedFabric) HomeOf(id NodeID) SwitchID { return sf.oracle.Home(id) }

// ShardOf returns the shard a node attaches (or would attach) to.
func (sf *ShardedFabric) ShardOf(id NodeID) int { return sf.plan.Assign[sf.HomeOf(id)] }

// Trunks returns every directed trunk link in the same global order the
// unsharded fabric reports, so per-trunk stats tables are byte-
// compatible.
func (sf *ShardedFabric) Trunks() []*Link {
	out := make([]*Link, len(sf.trunkOrder))
	for i, key := range sf.trunkOrder {
		out[i] = sf.trunkDir[key]
	}
	return out
}

// Trunk returns the directed trunk link a → b, or nil.
func (sf *ShardedFabric) Trunk(a, b SwitchID) *Link { return sf.trunkDir[[2]SwitchID{a, b}] }

// UnknownDst sums the unknown-destination drops across shards.
func (sf *ShardedFabric) UnknownDst() uint64 {
	var n uint64
	for _, g := range sf.shards {
		n += g.unknownDst
	}
	return n
}

// Unroutable sums the no-route drops across shards.
func (sf *ShardedFabric) Unroutable() uint64 {
	var n uint64
	for _, g := range sf.shards {
		n += g.unroutable
	}
	return n
}

// Exported returns the total frames handed off across shard
// boundaries; Imported the total admitted to their destination shards.
// After a run drains, the two are equal and every boundary ring is
// empty — the leak-balance tests assert this.
func (sf *ShardedFabric) Exported() uint64 {
	var n uint64
	for _, b := range sf.boundaries {
		n += b.exported
	}
	return n
}

// Imported returns the total frames admitted to their destination
// shards at barriers.
func (sf *ShardedFabric) Imported() uint64 { return sf.imported }

// PendingHandoffs returns the frames exported but not yet delivered on
// their destination shard — what the boundary rings hold. Zero once a
// run has drained.
func (sf *ShardedFabric) PendingHandoffs() int {
	n := 0
	for _, b := range sf.boundaries {
		n += b.out.len() + b.in.len()
	}
	return n
}

// QueueHighWater returns the deepest any boundary's export ring ever
// got, in frames. Conservative windows bound it naturally: a ring holds
// at most the frames one trunk serializes in about two windows.
func (sf *ShardedFabric) QueueHighWater() int {
	max := 0
	for _, b := range sf.boundaries {
		if b.highWater > max {
			max = b.highWater
		}
	}
	return max
}

// Idle reports whether nothing remains to run: every shard's event
// queue is empty and no handoff is pending. Scenario drivers use it to
// stop at a barrier once all work has drained.
func (sf *ShardedFabric) Idle() bool {
	if sf.PendingHandoffs() > 0 {
		return false
	}
	for _, g := range sf.shards {
		if _, ok := g.clock.Next(); ok {
			return false
		}
	}
	return true
}

// ShardRunStats is what sharding cost a run: how the plan cut the
// backbone, how many frames paid for it, and where the wall time went.
// It holds wall-clock time, so it belongs in no seeded output.
type ShardRunStats struct {
	// Shards is the effective shard count; Cut of Trunks trunks have
	// their ends on different shards.
	Shards, Cut, Trunks int
	// Handoffs counts frames handed across shard boundaries.
	Handoffs uint64
	// Wall is the time spent in RunWindows and Busy[i] the part of it
	// shard i spent executing its windows; the rest it waited — at
	// barriers for slower shards, and for the coordinator's serial work
	// (handoff admission and the barrier callback).
	Wall time.Duration
	Busy []time.Duration
}

// RunStats returns the accounting accumulated over every RunWindows
// call so far.
func (sf *ShardedFabric) RunStats() ShardRunStats {
	return ShardRunStats{
		Shards: sf.plan.Shards, Cut: sf.plan.Cut, Trunks: sf.plan.Trunks,
		Handoffs: sf.Exported(),
		Wall:     sf.wall, Busy: append([]time.Duration(nil), sf.busy...),
	}
}

// RunWindows advances every shard in barrier-synchronous conservative
// windows of the plan's lookahead until the horizon. barrier, when
// non-nil, runs at every window boundary — including t = 0 before the
// first window and the horizon after the last — with all shard clocks
// parked at the barrier instant; it is the only place control-plane
// work (circuit builds, teardowns, outcome collection) may touch more
// than one shard. Returning false stops the run at that barrier.
// RunWindows returns the instant it stopped at.
func (sf *ShardedFabric) RunWindows(horizon sim.Time, barrier func(now sim.Time) bool) sim.Time {
	began := time.Now()
	sf.startWorkers()
	defer func() {
		sf.stopWorkers()
		sf.wall += time.Since(began)
	}()
	w := sim.Time(0)
	for {
		if barrier != nil && !barrier(w) {
			return w
		}
		if w >= horizon {
			return w
		}
		end := horizon
		stride := sf.window
		if stride == 0 {
			stride = sf.plan.Lookahead
		}
		if stride > 0 {
			if e := w.Add(stride); e.Before(end) {
				end = e
			}
		}
		sf.importUpTo(end)
		sf.runWindow(end)
		w = end
	}
}

// importUpTo admits, on every boundary, the handoffs arriving by end.
// Boundaries need no merging: each handoff fires under the lane key its
// egress link gave it, so the destination clock's heap puts deliveries
// from different trunks in the one canonical order whatever order they
// were admitted in.
func (sf *ShardedFabric) importUpTo(end sim.Time) {
	for _, b := range sf.boundaries {
		sf.imported += b.admit(end)
	}
}

// startWorkers launches one goroutine per shard that runs the windows
// runWindow releases; stopWorkers ends them and waits. A single shard
// has none — it runs inline.
func (sf *ShardedFabric) startWorkers() {
	if len(sf.shards) == 1 {
		return
	}
	sf.start = make([]chan sim.Time, len(sf.shards))
	for i := range sf.shards {
		sf.start[i] = make(chan sim.Time)
		sf.workers.Add(1)
		go func(i int, start <-chan sim.Time) {
			defer sf.workers.Done()
			for end := range start {
				sf.runShard(i, end)
				sf.windowDone.Done()
			}
		}(i, sf.start[i])
	}
}

func (sf *ShardedFabric) stopWorkers() {
	for _, c := range sf.start {
		close(c)
	}
	sf.workers.Wait()
	sf.start = nil
}

// runShard advances shard i to end and accounts the time it took.
func (sf *ShardedFabric) runShard(i int, end sim.Time) {
	began := time.Now()
	sf.shards[i].clock.RunUntil(end)
	sf.busy[i] += time.Since(began)
}

// runWindow advances every shard to end, each on its worker goroutine,
// and returns when all have parked. With one shard it runs inline — the
// single-shard engine pays no synchronization cost.
func (sf *ShardedFabric) runWindow(end sim.Time) {
	if len(sf.shards) == 1 {
		sf.runShard(0, end)
		return
	}
	sf.windowDone.Add(len(sf.shards))
	for _, c := range sf.start {
		c <- end
	}
	sf.windowDone.Wait()
}

// PathTransits returns the directed trunk links a frame from a to b
// crosses, resolved over the global routes — the links returned live on
// their owning shards. Panics on unattached nodes or a disconnected
// backbone, like the unsharded fabric.
func (sf *ShardedFabric) PathTransits(a, b NodeID) []*Link {
	na, aok := sf.nodes[a]
	nb, bok := sf.nodes[b]
	if !aok || !bok {
		panic(fmt.Sprintf("netem: PathTransits between unattached nodes %q, %q", a, b))
	}
	sws := sf.oracle.route(na.home, nb.home)
	if sws == nil {
		panic(fmt.Sprintf("netem: no route between %q (home %q) and %q (home %q)", a, na.home, b, nb.home))
	}
	links := make([]*Link, 0, len(sws)-1)
	for i := 0; i+1 < len(sws); i++ {
		links = append(links, sf.trunkDir[[2]SwitchID{sws[i], sws[i+1]}])
	}
	return links
}

// PathOneWay returns the analytic no-queueing one-way latency from a to
// b, exactly as the unsharded fabric computes it.
func (sf *ShardedFabric) PathOneWay(a, b NodeID, size units.DataSize) time.Duration {
	na, aok := sf.nodes[a]
	nb, bok := sf.nodes[b]
	if !aok || !bok {
		panic(fmt.Sprintf("netem: PathOneWay between unattached nodes %q, %q", a, b))
	}
	total := na.port.cfg.UpRate.TransmissionTime(size) + na.port.cfg.Delay +
		nb.port.cfg.DownRate.TransmissionTime(size) + nb.port.cfg.Delay
	for _, l := range sf.PathTransits(a, b) {
		total += l.Config().Rate.TransmissionTime(size) + l.Config().Delay
	}
	return total
}

// PathRTT returns the analytic round-trip time between two attached
// nodes.
func (sf *ShardedFabric) PathRTT(a, b NodeID, size units.DataSize) time.Duration {
	return sf.PathOneWay(a, b, size) + sf.PathOneWay(b, a, size)
}

// BottleneckRate returns the minimum forwarding rate along the node
// sequence, mirroring GraphFabric.BottleneckRate over the global
// topology.
func (sf *ShardedFabric) BottleneckRate(path []NodeID) units.DataRate {
	if len(path) < 2 {
		panic("netem: BottleneckRate needs at least two nodes")
	}
	min := units.DataRate(1<<63 - 1)
	for i := 0; i < len(path)-1; i++ {
		na, aok := sf.nodes[path[i]]
		nb, bok := sf.nodes[path[i+1]]
		if !aok || !bok {
			panic(fmt.Sprintf("netem: BottleneckRate over unattached hop %q→%q", path[i], path[i+1]))
		}
		if na.port.cfg.UpRate < min {
			min = na.port.cfg.UpRate
		}
		if nb.port.cfg.DownRate < min {
			min = nb.port.cfg.DownRate
		}
		for _, l := range sf.PathTransits(path[i], path[i+1]) {
			if r := l.Config().Rate; r < min {
				min = r
			}
		}
	}
	return min
}

// Port returns an attached node's port regardless of shard, or nil.
func (sf *ShardedFabric) Port(id NodeID) *Port {
	ni, ok := sf.nodes[id]
	if !ok {
		return nil
	}
	return ni.port
}

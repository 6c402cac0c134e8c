package netem

import (
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"circuitstart/internal/sim"
	"circuitstart/internal/units"
)

// SwitchID names a backbone switch of a GraphFabric. Switches are
// fabric-internal: nodes never address them, they only home to one.
type SwitchID string

// TrunkConfig describes one switch-to-switch trunk. A trunk is
// bidirectional: each direction is a full Link with this configuration,
// so rate, delay, bounded queue and random loss all apply per direction.
type TrunkConfig struct {
	// Rate is the serialization rate of each direction. Must be positive.
	Rate units.DataRate
	// Delay is the one-way propagation delay.
	Delay time.Duration
	// QueueCap bounds each direction's queue (0 = unbounded).
	QueueCap units.DataSize
	// LossProb drops frames independently on each direction.
	LossProb float64
	// TrainSize enables cell trains on both directions (see
	// LinkConfig.TrainSize). <= 1 caps every train at one frame.
	TrainSize int
}

// SymmetricTrunk returns a TrunkConfig without loss.
func SymmetricTrunk(rate units.DataRate, delay time.Duration, queueCap units.DataSize) TrunkConfig {
	return TrunkConfig{Rate: rate, Delay: delay, QueueCap: queueCap}
}

// TrunkSpec declares one trunk of a GraphSpec.
type TrunkSpec struct {
	A, B   SwitchID
	Config TrunkConfig
}

// GraphSpec is the data description of a routed backbone: switches,
// trunks between them, and which switch each node homes to. It is plain
// data so scenarios can carry it and every trial can build its own
// fabric (sharing a built fabric across parallel trials would race).
type GraphSpec struct {
	// Switches lists the backbone switches. At least one.
	Switches []SwitchID
	// Trunks lists the bidirectional trunk links.
	Trunks []TrunkSpec
	// Homes pins nodes to switches. Nodes not listed here home to a
	// switch chosen by a deterministic hash of their ID, so generated
	// populations and ad-hoc clients attach without enumeration.
	Homes map[NodeID]SwitchID
}

// Validate checks the spec for structural errors: no switches, duplicate
// switches, trunks naming unknown or identical endpoints, duplicate
// trunks, non-positive trunk rates, or homes to unknown switches.
func (gs GraphSpec) Validate() error {
	if len(gs.Switches) == 0 {
		return fmt.Errorf("netem: graph spec with no switches")
	}
	switches := make(map[SwitchID]bool, len(gs.Switches))
	for _, id := range gs.Switches {
		if switches[id] {
			return fmt.Errorf("netem: duplicate switch %q", id)
		}
		switches[id] = true
	}
	pairs := make(map[[2]SwitchID]bool, len(gs.Trunks))
	for _, t := range gs.Trunks {
		if t.A == t.B {
			return fmt.Errorf("netem: trunk %q-%q is a self-loop", t.A, t.B)
		}
		if !switches[t.A] || !switches[t.B] {
			return fmt.Errorf("netem: trunk %q-%q names an unknown switch", t.A, t.B)
		}
		key := [2]SwitchID{t.A, t.B}
		if t.B < t.A {
			key = [2]SwitchID{t.B, t.A}
		}
		if pairs[key] {
			return fmt.Errorf("netem: duplicate trunk %q-%q", t.A, t.B)
		}
		pairs[key] = true
		if t.Config.Rate <= 0 {
			return fmt.Errorf("netem: trunk %q-%q with non-positive rate %v", t.A, t.B, t.Config.Rate)
		}
		if t.Config.Delay < 0 {
			return fmt.Errorf("netem: trunk %q-%q with negative delay %v", t.A, t.B, t.Config.Delay)
		}
		if t.Config.LossProb < 0 || t.Config.LossProb > 1 {
			return fmt.Errorf("netem: trunk %q-%q loss probability %v outside [0,1]", t.A, t.B, t.Config.LossProb)
		}
	}
	for node, sw := range gs.Homes {
		if !switches[sw] {
			return fmt.Errorf("netem: node %q homed to unknown switch %q", node, sw)
		}
	}
	return nil
}

// Clone returns a deep copy of the spec: mutating the copy's switch or
// trunk lists, or its home map, never aliases the original. Sweep
// dimensions use this to vary trunk parameters per grid point.
func (gs GraphSpec) Clone() GraphSpec {
	out := gs
	if gs.Switches != nil {
		out.Switches = append([]SwitchID(nil), gs.Switches...)
	}
	if gs.Trunks != nil {
		out.Trunks = append([]TrunkSpec(nil), gs.Trunks...)
	}
	if gs.Homes != nil {
		out.Homes = make(map[NodeID]SwitchID, len(gs.Homes))
		for n, s := range gs.Homes {
			out.Homes[n] = s
		}
	}
	return out
}

// HasTrunk reports whether the spec declares a trunk between a and b (in
// either declaration order).
func (gs GraphSpec) HasTrunk(a, b SwitchID) bool {
	for _, t := range gs.Trunks {
		if (t.A == a && t.B == b) || (t.A == b && t.B == a) {
			return true
		}
	}
	return false
}

// MinPositiveTrunkDelay returns the smallest nonzero propagation delay
// over every trunk in the spec, or zero when no trunk has one. It is a
// partition-independent lower bound on any ShardPlan's lookahead (the
// lookahead minimizes over cut trunks, a subset), so scenario engines
// use it as the shard-count-invariant barrier window: the same barrier
// schedule at every shard count, including one.
func (gs GraphSpec) MinPositiveTrunkDelay() time.Duration {
	min := time.Duration(0)
	for _, t := range gs.Trunks {
		if d := t.Config.Delay; d > 0 && (min == 0 || d < min) {
			min = d
		}
	}
	return min
}

// Build constructs the fabric the spec describes on the given clock. rng
// drives trunk loss processes (only consulted when a trunk has loss).
// Build panics on an invalid spec — Validate first when the spec comes
// from user input.
func (gs GraphSpec) Build(clock *sim.Clock, rng *sim.RNG) *GraphFabric {
	if err := gs.Validate(); err != nil {
		panic(err)
	}
	g := NewGraphFabric(clock)
	for _, id := range gs.Switches {
		g.AddSwitch(id)
	}
	for _, t := range gs.Trunks {
		g.AddTrunk(t.A, t.B, t.Config, rng)
	}
	for _, node := range sortedNodes(gs.Homes) {
		g.AssignHome(node, gs.Homes[node])
	}
	return g
}

func sortedNodes(m map[NodeID]SwitchID) []NodeID {
	ids := make([]NodeID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// gswitch is one backbone switch: its outgoing trunk per neighbor and
// the build-time next-hop table toward every other switch.
type gswitch struct {
	id   SwitchID
	out  map[SwitchID]*Link    // neighbor → trunk link this switch transmits on
	next map[SwitchID]SwitchID // destination switch → next hop
}

// GraphFabric routes frames across an arbitrary switch graph: a node's
// uplink feeds its home switch, the switch graph forwards along
// precomputed shortest paths over trunk links (each a full Link, so
// trunks serialize, queue, delay and drop like any access link), and the
// destination's home switch feeds its downlink. With a single switch it
// degenerates to exactly the star.
//
// Construction is two-phase: AddSwitch/AddTrunk build the backbone, the
// first Attach freezes it and computes the routes (deterministic
// shortest path: trunk propagation delay, then hop count, then
// lexicographic next-hop as tie-breakers). Mutating the backbone after
// the freeze panics — rerouting under live traffic would invalidate
// running experiments.
type GraphFabric struct {
	clock    *sim.Clock
	switches map[SwitchID]*gswitch
	order    []SwitchID // sorted, fixed at freeze
	trunks   []*Link    // both directions, deterministic order
	frozen   bool

	ports  map[NodeID]*Port
	pinned map[NodeID]SwitchID // explicit homes
	homes  map[NodeID]SwitchID // resolved at attach
	pool   *FramePool

	// Sharded-execution hooks (see shard.go). remoteHome resolves nodes
	// attached on other shards of a ShardedFabric so routeFrom forwards
	// toward their home switch instead of counting an unknown
	// destination; onAttach mirrors local attachments into the sharded
	// fabric's global registry. Both are nil on standalone fabrics.
	remoteHome func(NodeID) (SwitchID, bool)
	onAttach   func(id NodeID, home SwitchID, p *Port)

	unknownDst uint64
	unroutable uint64
}

var _ Fabric = (*GraphFabric)(nil)

// NewGraphFabric creates an empty routed fabric on the given clock.
func NewGraphFabric(clock *sim.Clock) *GraphFabric {
	if clock == nil {
		panic("netem: NewGraphFabric with nil clock")
	}
	return &GraphFabric{
		clock:    clock,
		switches: make(map[SwitchID]*gswitch),
		ports:    make(map[NodeID]*Port),
		pinned:   make(map[NodeID]SwitchID),
		homes:    make(map[NodeID]SwitchID),
		pool:     NewFramePool(),
	}
}

// Clock returns the simulation clock the network runs on.
func (g *GraphFabric) Clock() *sim.Clock { return g.clock }

// AddSwitch registers a backbone switch. Panics on duplicates or after
// the fabric is frozen.
func (g *GraphFabric) AddSwitch(id SwitchID) {
	if g.frozen {
		panic(fmt.Sprintf("netem: AddSwitch(%q) after first Attach", id))
	}
	if _, dup := g.switches[id]; dup {
		panic(fmt.Sprintf("netem: switch %q added twice", id))
	}
	g.switches[id] = &gswitch{
		id:   id,
		out:  make(map[SwitchID]*Link),
		next: make(map[SwitchID]SwitchID),
	}
}

// AddTrunk connects two switches with a bidirectional trunk: one Link
// per direction, named "trunk:a>b" and "trunk:b>a". rng drives the loss
// process (may be nil when cfg.LossProb is zero). Panics on unknown
// switches, self-loops, duplicate pairs, or after the freeze.
func (g *GraphFabric) AddTrunk(a, b SwitchID, cfg TrunkConfig, rng *sim.RNG) {
	if g.frozen {
		panic(fmt.Sprintf("netem: AddTrunk(%q, %q) after first Attach", a, b))
	}
	if a == b {
		panic(fmt.Sprintf("netem: trunk %q-%q is a self-loop", a, b))
	}
	sa, sb := g.switches[a], g.switches[b]
	if sa == nil || sb == nil {
		panic(fmt.Sprintf("netem: trunk %q-%q names an unknown switch", a, b))
	}
	if _, dup := sa.out[b]; dup {
		panic(fmt.Sprintf("netem: duplicate trunk %q-%q", a, b))
	}
	lc := LinkConfig{Rate: cfg.Rate, Delay: cfg.Delay, QueueCap: cfg.QueueCap, LossProb: cfg.LossProb, RNG: rng, TrainSize: cfg.TrainSize}
	sa.out[b] = NewLink(trunkName(a, b), g.clock, lc, &switchIngress{g: g, sw: sb})
	sa.out[b].UsePool(g.pool, false)
	sb.out[a] = NewLink(trunkName(b, a), g.clock, lc, &switchIngress{g: g, sw: sa})
	sb.out[a].UsePool(g.pool, false)
}

// switchIngress is the handler feeding a switch's routing stage — the
// destination of every uplink and trunk that terminates there. It
// implements TrainHandler so an arriving train is routed as one batch
// and its members enqueue back to back on their next link, keeping the
// coalescing alive across the backbone.
type switchIngress struct {
	g  *GraphFabric
	sw *gswitch
}

func (in *switchIngress) Deliver(f *Frame) { in.g.routeFrom(in.sw, f) }

func (in *switchIngress) DeliverTrain(fs []*Frame) {
	for _, f := range fs {
		in.g.routeFrom(in.sw, f)
	}
}

func trunkName(a, b SwitchID) string { return fmt.Sprintf("trunk:%s>%s", a, b) }

// Trunk returns the directed trunk link a → b, or nil. Experiments use
// it to step a shared bottleneck's capacity mid-run and to read stats.
func (g *GraphFabric) Trunk(a, b SwitchID) *Link {
	sa := g.switches[a]
	if sa == nil {
		return nil
	}
	return sa.out[b]
}

// Trunks returns every directed trunk link in deterministic
// (source switch, destination switch) order.
func (g *GraphFabric) Trunks() []*Link {
	if !g.frozen {
		g.freeze()
	}
	return g.trunks
}

// AssignHome pins a node to a switch before it attaches. Unpinned nodes
// home to a deterministic hash of their ID. Panics on unknown switches
// or nodes that already attached.
func (g *GraphFabric) AssignHome(node NodeID, sw SwitchID) {
	if _, ok := g.switches[sw]; !ok {
		panic(fmt.Sprintf("netem: AssignHome(%q) to unknown switch %q", node, sw))
	}
	if _, attached := g.ports[node]; attached {
		panic(fmt.Sprintf("netem: AssignHome(%q) after the node attached", node))
	}
	g.pinned[node] = sw
}

// Home returns the switch a node homes (or would home) to.
func (g *GraphFabric) Home(node NodeID) SwitchID {
	if sw, ok := g.homes[node]; ok {
		return sw
	}
	if sw, ok := g.pinned[node]; ok {
		return sw
	}
	if !g.frozen {
		g.freeze()
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s", node)
	return g.order[h.Sum64()%uint64(len(g.order))]
}

// Attach connects a node to its home switch. The handler receives every
// frame addressed to id. Attach panics if id is already attached, the
// handler is nil, or the fabric has no switches. The first Attach
// freezes the backbone and computes the routing tables.
func (g *GraphFabric) Attach(id NodeID, cfg AccessConfig, h Handler, rng *sim.RNG) *Port {
	if _, dup := g.ports[id]; dup {
		panic(fmt.Sprintf("netem: node %q attached twice", id))
	}
	if h == nil {
		panic(fmt.Sprintf("netem: node %q attached with nil handler", id))
	}
	if !g.frozen {
		g.freeze()
	}
	home := g.Home(id)
	sw := g.switches[home]
	p := newPort(id, g.clock, cfg, &switchIngress{g: g, sw: sw}, h, rng, g.pool)
	g.ports[id] = p
	g.homes[id] = home
	if g.onAttach != nil {
		g.onAttach(id, home, p)
	}
	return p
}

// freeze fixes the backbone: sorts the switch order, collects the trunk
// list, and computes every switch's next-hop table.
func (g *GraphFabric) freeze() {
	if len(g.switches) == 0 {
		panic("netem: graph fabric with no switches")
	}
	g.frozen = true
	g.order = make([]SwitchID, 0, len(g.switches))
	for id := range g.switches {
		g.order = append(g.order, id)
	}
	sort.Slice(g.order, func(i, j int) bool { return g.order[i] < g.order[j] })
	for _, a := range g.order {
		sa := g.switches[a]
		for _, b := range g.neighbors(sa) {
			g.trunks = append(g.trunks, sa.out[b])
		}
	}
	for _, src := range g.order {
		g.computeRoutes(src)
	}
}

// neighbors returns a switch's trunk neighbors in sorted order.
func (g *GraphFabric) neighbors(s *gswitch) []SwitchID {
	out := make([]SwitchID, 0, len(s.out))
	for id := range s.out {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// computeRoutes runs Dijkstra from src over trunk propagation delay,
// breaking ties by hop count and then by lexicographic first hop, and
// stores src's next-hop table. Every step is over sorted orders, so the
// routes are a pure function of the spec.
func (g *GraphFabric) computeRoutes(src SwitchID) {
	type est struct {
		dist  time.Duration
		hops  int
		first SwitchID // next hop out of src
		known bool
	}
	ests := make(map[SwitchID]*est, len(g.order))
	for _, id := range g.order {
		ests[id] = &est{}
	}
	ests[src].known = true
	visited := make(map[SwitchID]bool, len(g.order))

	better := func(d time.Duration, hops int, first SwitchID, cur *est) bool {
		if !cur.known {
			return true
		}
		if d != cur.dist {
			return d < cur.dist
		}
		if hops != cur.hops {
			return hops < cur.hops
		}
		return first < cur.first
	}

	for range g.order {
		// Pick the unvisited known switch with the smallest
		// (dist, hops, first) estimate — the full tie-break order, so a
		// selected switch's estimate is final — breaking exact ties by
		// ID order.
		var u SwitchID
		found := false
		for _, id := range g.order {
			e := ests[id]
			if visited[id] || !e.known {
				continue
			}
			if !found || better(e.dist, e.hops, e.first, ests[u]) ||
				(*e == *ests[u] && id < u) {
				u, found = id, true
			}
		}
		if !found {
			break // remaining switches unreachable
		}
		visited[u] = true
		su := g.switches[u]
		for _, v := range g.neighbors(su) {
			// A visited switch's estimate is final; re-relaxing it
			// could retroactively change tie-break fields its
			// downstream switches already inherited.
			if visited[v] {
				continue
			}
			link := su.out[v]
			d := ests[u].dist + link.Config().Delay
			hops := ests[u].hops + 1
			first := ests[u].first
			if u == src {
				first = v
			}
			if ev := ests[v]; better(d, hops, first, ev) {
				*ev = est{dist: d, hops: hops, first: first, known: true}
			}
		}
	}

	next := g.switches[src].next
	for _, dst := range g.order {
		if dst == src {
			continue
		}
		if e := ests[dst]; e.known {
			next[dst] = e.first
		}
	}
}

// routeFrom forwards a frame that arrived at sw: deliver locally when
// the destination homes here, otherwise transmit on the trunk toward
// the destination's home switch. Unattached destinations and
// destinations without a route are counted and dropped — loudly
// surfaced by the scenario layer so a routing bug cannot silently
// blackhole an experiment.
func (g *GraphFabric) routeFrom(sw *gswitch, f *Frame) {
	dst, ok := g.ports[f.Dst]
	if !ok {
		if g.remoteHome != nil {
			if home, remote := g.remoteHome(f.Dst); remote {
				nh, routed := sw.next[home]
				if !routed {
					g.unroutable++
					g.pool.Put(f)
					return
				}
				sw.out[nh].Send(f)
				return
			}
		}
		g.unknownDst++
		g.pool.Put(f)
		return
	}
	home := g.homes[f.Dst]
	if home == sw.id {
		dst.down.Send(f)
		return
	}
	nh, ok := sw.next[home]
	if !ok {
		g.unroutable++
		g.pool.Put(f)
		return
	}
	sw.out[nh].Send(f)
}

// Port returns the port of an attached node, or nil.
func (g *GraphFabric) Port(id NodeID) *Port { return g.ports[id] }

// Nodes returns the attached node IDs in sorted order.
func (g *GraphFabric) Nodes() []NodeID {
	ids := make([]NodeID, 0, len(g.ports))
	for id := range g.ports {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Switches returns the backbone switch IDs in sorted order.
func (g *GraphFabric) Switches() []SwitchID {
	if !g.frozen {
		g.freeze()
	}
	out := make([]SwitchID, len(g.order))
	copy(out, g.order)
	return out
}

// FramePool returns the fabric's frame pool.
func (g *GraphFabric) FramePool() *FramePool { return g.pool }

// UnknownDst returns how many frames were addressed to detached nodes.
func (g *GraphFabric) UnknownDst() uint64 { return g.unknownDst }

// Unroutable returns how many frames were dropped for lack of a route
// between their home switches (a disconnected backbone).
func (g *GraphFabric) Unroutable() uint64 { return g.unroutable }

// ResetStats zeroes the drop counters and every access and trunk link's
// stats.
func (g *GraphFabric) ResetStats() {
	g.unknownDst = 0
	g.unroutable = 0
	for _, id := range g.Nodes() {
		p := g.ports[id]
		p.up.ResetStats()
		p.down.ResetStats()
	}
	for _, l := range g.Trunks() {
		l.ResetStats()
	}
}

// route returns the switch sequence from a's home to b's home
// (inclusive), or nil when no route exists.
func (g *GraphFabric) route(a, b SwitchID) []SwitchID {
	hops := []SwitchID{a}
	for cur := a; cur != b; {
		nh, ok := g.switches[cur].next[b]
		if !ok {
			return nil
		}
		hops = append(hops, nh)
		cur = nh
	}
	return hops
}

// trunkPath returns the directed trunk links between two attached
// nodes' home switches, or panics when the backbone is disconnected
// between them — analytic path queries on unroutable pairs are
// programming errors.
func (g *GraphFabric) trunkPath(a, b NodeID) []*Link {
	ha, hb := g.homes[a], g.homes[b]
	sws := g.route(ha, hb)
	if sws == nil {
		panic(fmt.Sprintf("netem: no route between %q (home %q) and %q (home %q)", a, ha, b, hb))
	}
	links := make([]*Link, 0, len(sws)-1)
	for i := 0; i+1 < len(sws); i++ {
		links = append(links, g.switches[sws[i]].out[sws[i+1]])
	}
	return links
}

// PathTransits returns the directed trunk links a frame from a to b
// crosses, in traversal order. Panics on unattached nodes or when the
// backbone is disconnected between their homes.
func (g *GraphFabric) PathTransits(a, b NodeID) []*Link {
	if g.ports[a] == nil || g.ports[b] == nil {
		panic(fmt.Sprintf("netem: PathTransits between unattached nodes %q, %q", a, b))
	}
	return g.trunkPath(a, b)
}

// PathOneWay returns the analytic no-queueing one-way latency from a to
// b for a frame of the given size: access serialization and delay on
// both ends plus one serialization and propagation per trunk crossed.
func (g *GraphFabric) PathOneWay(a, b NodeID, size units.DataSize) time.Duration {
	pa, pb := g.ports[a], g.ports[b]
	if pa == nil || pb == nil {
		panic(fmt.Sprintf("netem: PathOneWay between unattached nodes %q, %q", a, b))
	}
	total := pa.cfg.UpRate.TransmissionTime(size) + pa.cfg.Delay +
		pb.cfg.DownRate.TransmissionTime(size) + pb.cfg.Delay
	for _, l := range g.trunkPath(a, b) {
		total += l.Config().Rate.TransmissionTime(size) + l.Config().Delay
	}
	return total
}

// PathRTT returns the analytic no-queueing round-trip time between two
// attached nodes for a frame of the given size in each direction.
func (g *GraphFabric) PathRTT(a, b NodeID, size units.DataSize) time.Duration {
	return g.PathOneWay(a, b, size) + g.PathOneWay(b, a, size)
}

// BottleneckRate returns the minimum forwarding rate along the node
// sequence path: each sender's uplink, every trunk its frames cross,
// and each receiver's downlink.
func (g *GraphFabric) BottleneckRate(path []NodeID) units.DataRate {
	if len(path) < 2 {
		panic("netem: BottleneckRate needs at least two nodes")
	}
	min := units.DataRate(1<<63 - 1)
	for i := 0; i < len(path)-1; i++ {
		src, dst := g.ports[path[i]], g.ports[path[i+1]]
		if src == nil || dst == nil {
			panic(fmt.Sprintf("netem: BottleneckRate over unattached hop %q→%q", path[i], path[i+1]))
		}
		if src.cfg.UpRate < min {
			min = src.cfg.UpRate
		}
		if dst.cfg.DownRate < min {
			min = dst.cfg.DownRate
		}
		for _, l := range g.trunkPath(path[i], path[i+1]) {
			if r := l.Config().Rate; r < min {
				min = r
			}
		}
	}
	return min
}

package netem

import (
	"fmt"
	"time"

	"circuitstart/internal/sim"
	"circuitstart/internal/units"
)

// LinkConfig describes a unidirectional point-to-point link.
type LinkConfig struct {
	// Rate is the serialization rate. Must be positive.
	Rate units.DataRate
	// Delay is the one-way propagation delay.
	Delay time.Duration
	// QueueCap bounds the egress queue in bytes, *excluding* the frame
	// currently being serialized. Zero means unbounded (useful for
	// analytically clean single-flow experiments; the paper's scenarios
	// rely on backpressure rather than drops).
	QueueCap units.DataSize
	// LossProb drops each frame independently with this probability
	// after serialization ("in flight"), emulating lossy paths for the
	// failure-injection tests. Requires RNG when non-zero.
	LossProb float64
	// RNG drives random loss. Only consulted when LossProb > 0.
	RNG *sim.RNG
	// TrainSize, when > 1, enables cell trains: up to TrainSize
	// back-to-back queued frames are coalesced into one train that
	// serializes, propagates and delivers as a batch, amortizing event
	// scheduling, ring churn and handler dispatch across the burst.
	// Every frame crosses the link in a train; values <= 1 cap the
	// train at one frame, which is the per-frame pipeline — one
	// serialization and one delivery event per frame, no stretching —
	// so TrainSize 0 and 1 are byte-identical (the determinism fixture
	// relies on this). Train membership is decided at formation time:
	// frames arriving while a full train serializes join the next one,
	// a train never mixes the priority and data classes, and an
	// installed scheduler's preemption points split trains (see
	// transmitTrain).
	TrainSize int
}

// Validate checks the configuration. NewLink panics on exactly these
// errors; layers that assemble configs from user input (scenario specs,
// sweep grids) call Validate first so a bad grid point fails cleanly
// instead of crashing a worker.
func (c LinkConfig) Validate() error {
	if c.Rate <= 0 {
		return fmt.Errorf("netem: non-positive rate %v", c.Rate)
	}
	if c.Delay < 0 {
		return fmt.Errorf("netem: negative delay %v", c.Delay)
	}
	if c.LossProb < 0 || c.LossProb > 1 {
		return fmt.Errorf("netem: loss probability %v outside [0,1]", c.LossProb)
	}
	if c.LossProb > 0 && c.RNG == nil {
		return fmt.Errorf("netem: loss probability %v but no RNG", c.LossProb)
	}
	if c.TrainSize < 0 {
		return fmt.Errorf("netem: negative train size %d", c.TrainSize)
	}
	return nil
}

// LinkStats counts what happened on a link. All counters are cumulative
// since construction or the last ResetStats.
//
// CellsDelivered counts frames handed to the receiver; TrainsDelivered
// counts delivery events. On an untrained link the two advance in
// lockstep (every delivery carries one frame), so their ratio — the
// mean train length, see MeanTrainLen — is exactly 1 there and measures
// the achieved coalescing on trained links.
type LinkStats struct {
	Enqueued        uint64         // frames accepted into the queue
	CellsDelivered  uint64         // frames handed to the receiver
	TrainsDelivered uint64         // delivery events (trains; = frames when untrained)
	TrainStretched  uint64         // frames that joined a train mid-serialization
	TailDrops       uint64         // frames dropped because the queue was full
	RandomLoss      uint64         // frames dropped by the loss process
	DownDrops       uint64         // frames dropped because the link was down
	SchedDrops      uint64         // frames refused by the installed scheduler
	BytesOut        units.DataSize // payload bytes delivered
	QueueDelay      time.Duration  // total time frames spent queued (excl. serialization)
	MaxQueueLen     int            // high-water mark of queued frames
}

// MeanTrainLen returns frames per delivery event — 1.0 on an untrained
// link, up to TrainSize under full coalescing, 0 when nothing was
// delivered. Result tables and sweep sinks surface it as a derived
// column.
func (s LinkStats) MeanTrainLen() float64 {
	if s.TrainsDelivered == 0 {
		return 0
	}
	return float64(s.CellsDelivered) / float64(s.TrainsDelivered)
}

// Merge accumulates another snapshot into s: counters add, the queue
// high-water mark takes the maximum. Result aggregation uses it to pool
// the same link's stats across replications.
func (s *LinkStats) Merge(o LinkStats) {
	s.Enqueued += o.Enqueued
	s.CellsDelivered += o.CellsDelivered
	s.TrainsDelivered += o.TrainsDelivered
	s.TrainStretched += o.TrainStretched
	s.TailDrops += o.TailDrops
	s.RandomLoss += o.RandomLoss
	s.DownDrops += o.DownDrops
	s.SchedDrops += o.SchedDrops
	s.BytesOut += o.BytesOut
	s.QueueDelay += o.QueueDelay
	if o.MaxQueueLen > s.MaxQueueLen {
		s.MaxQueueLen = o.MaxQueueLen
	}
}

// Link is a unidirectional pipe with a drop-tail FIFO, a serializer that
// transmits one train at a time at the configured rate, and a
// propagation-delay stage. It is the only place in the simulator where
// bandwidth contention happens.
//
// The machinery is a pre-bound state machine: the two stage callbacks
// (serialization complete, propagation complete) are bound once at
// construction, the serializer's current train lives in a field, and
// frames past the serializer wait in a FIFO ring — propagation delay is
// constant per link, so deliveries complete in the order they were
// scheduled. Together with ring-buffered queues and a FramePool this
// makes the transit of a frame allocation-free.
type Link struct {
	name  string
	clock *sim.Clock
	cfg   LinkConfig
	dst   Handler

	queue       frameRing  // data frames (unused when sched is set)
	prioQueue   frameRing  // control frames, serialized first
	sched       SchedQueue // optional data-frame scheduler, replaces queue
	queuedBytes units.DataSize
	busy        bool

	// inflight holds serialized frames in the propagation stage. Only
	// the train at its front has a delivery event in the clock's heap;
	// later trains wait on the key reserved for them (Frame.deliverKey).
	inflight frameRing

	// Train state. trainCap is the most frames one train may hold,
	// max(1, cfg.TrainSize). train holds the members of the train
	// occupying the serializer; deliverBuf is the scratch batch handed
	// to a TrainHandler. Both reach their working set once and are
	// reused — steady-state train transit is allocation-free. The
	// propagation FIFO holds the members of consecutive trains back to
	// back; the first survivor of each carries the count of those that
	// passed the loss stage with it (Frame.trainLen), which is how
	// delivery finds the train boundary.
	trainCap   int
	train      []*Frame
	deliverBuf []*Frame

	// Stretching state: a frame arriving while a train with room is in
	// the serializer joins it, pushing the train's completion back by
	// the frame's own serialization time. trainSrc records which queue
	// the train draws from (a train never mixes sources), trainRate the
	// formation-time rate every member — joiners included — serializes
	// at, trainDoneAt the currently scheduled completion instant, and
	// txDoneEv the completion event being pushed back.
	trainSrc    trainSource
	trainRate   units.DataRate
	trainDoneAt sim.Time
	txDoneEv    sim.Handle

	txDoneFn  func() // onTxDoneTrain bound once
	deliverFn func() // onDeliverTrain bound once

	// Fault-injection state (see internal/faults). down drops every frame
	// completing serialization (flapping links, trunk partitions);
	// lossModel adds a stateful loss process on top of cfg.LossProb;
	// jitter perturbs propagation delay per delivery, with delivery
	// instants clamped monotone (lastDeliverAt) so the in-flight FIFO
	// stays ordered. All three are nil/false in fault-free runs, leaving
	// the hot path and the RNG draw order byte-identical.
	down          bool
	lossModel     LossModel
	jitter        JitterModel
	lastDeliverAt sim.Time

	// pool receives dead frames (dropped, lost, or — on terminal links —
	// delivered). terminal marks the last link before a node handler:
	// only there does Deliver end a frame's life; on fabric-internal
	// links the routing stage sends it onward.
	pool     *FramePool
	terminal bool

	// lane, when nonzero, makes this a trunk of a ShardedFabric: its
	// delivery keys come from sim.LaneKey(lane, laneSeq) instead of the
	// clock's own counter, so where a delivery fires among events it ties
	// with does not depend on which shard's clock fires it. laneSeq
	// counts the trains that reached the propagation stage.
	lane    uint16
	laneSeq uint64

	// export, when set, makes this a shard-boundary egress: frames that
	// survive serialization are handed to the sharded fabric at
	// serialization end, with the key their delivery would have been
	// scheduled under (instant now + Delay, jitter-clamped), instead of
	// entering the local propagation FIFO. The callback owns the frames
	// for the duration of the call and must detach payloads it keeps —
	// the propagation stage and delivery stats then happen on the
	// importing shard, so LinkStats stay identical to local delivery.
	export func(fs []*Frame, key sim.Key)

	stats LinkStats

	// OnDrop, if non-nil, observes every dropped frame (tail drop or
	// random loss). Tests use it for failure injection assertions. The
	// frame is recycled when the observer returns.
	OnDrop func(f *Frame, reason DropReason)
}

// DropReason says why a frame was discarded.
type DropReason int

// Drop reasons.
const (
	DropTail  DropReason = iota // egress queue full
	DropLoss                    // random loss process
	DropSched                   // refused by the installed scheduler (policer)
	DropDown                    // link administratively down (flap / partition)
)

func (r DropReason) String() string {
	switch r {
	case DropTail:
		return "tail-drop"
	case DropLoss:
		return "random-loss"
	case DropSched:
		return "sched-drop"
	case DropDown:
		return "down-drop"
	default:
		return fmt.Sprintf("DropReason(%d)", int(r))
	}
}

// NewLink creates a link feeding dst. Name appears in panics and traces.
func NewLink(name string, clock *sim.Clock, cfg LinkConfig, dst Handler) *Link {
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("link %q: %v", name, err))
	}
	if dst == nil {
		panic(fmt.Sprintf("netem: link %q with nil destination", name))
	}
	l := &Link{name: name, clock: clock, cfg: cfg, dst: dst, trainCap: max(1, cfg.TrainSize), pool: &unpooled}
	l.txDoneFn = l.onTxDoneTrain
	l.deliverFn = l.onDeliverTrain
	return l
}

// UsePool wires frame recycling: dead frames go back to pool, the
// link's rings take their buffers from it, and — when terminal is true —
// a frame's delivery to the destination handler ends its life (fabrics
// set this on the last link before a node). Standalone links without a
// pool never recycle: their frames and rings are plain allocations.
func (l *Link) UsePool(pool *FramePool, terminal bool) {
	l.pool = pool
	l.terminal = terminal
}

// Name returns the link's diagnostic name.
func (l *Link) Name() string { return l.name }

// Config returns the link's configuration.
func (l *Link) Config() LinkConfig { return l.cfg }

// SetRate changes the link's serialization rate. The new rate applies
// from the next train onward (a train already serializing finishes at
// the old rate). Experiments use it to model capacity changes mid-run.
func (l *Link) SetRate(r units.DataRate) {
	if r <= 0 {
		panic(fmt.Sprintf("netem: link %q SetRate(%v)", l.name, r))
	}
	l.cfg.Rate = r
}

// SetDown takes the link down (true) or brings it back up (false). A
// down link still accepts and serializes frames — the node does not know
// its link died — but every frame completing serialization is dropped
// with DropDown instead of propagating. Fault plans flap access links
// and partition trunks through this switch.
func (l *Link) SetDown(down bool) { l.down = down }

// Down reports whether the link is administratively down.
func (l *Link) Down() bool { return l.down }

// SetLossModel installs (or, with nil, removes) a stateful loss process
// consulted once per serialized frame in addition to cfg.LossProb. The
// model must draw from its own RNG stream (see LossModel).
func (l *Link) SetLossModel(m LossModel) { l.lossModel = m }

// SetJitter installs (or, with nil, removes) a propagation-jitter model
// consulted once per scheduled delivery.
func (l *Link) SetJitter(m JitterModel) { l.jitter = m }

// SetScheduler installs a data-frame scheduler, replacing the built-in
// FIFO ring for non-priority frames (priority frames keep strict
// precedence). Install it before any data frame flows: frames already
// queued in the FIFO ring stay there and drain first. A nil scheduler
// restores the built-in FIFO.
func (l *Link) SetScheduler(q SchedQueue) { l.sched = q }

// Stats returns a snapshot of the link counters.
func (l *Link) Stats() LinkStats { return l.stats }

// ResetStats zeroes the counters (including MaxQueueLen and QueueDelay)
// without touching frames in flight, so back-to-back trials on a reused
// fabric do not leak queue high-water marks across trial boundaries.
func (l *Link) ResetStats() { l.stats = LinkStats{} }

// QueueLen returns the number of frames waiting (not counting the one in
// serialization), across both priority classes and any installed
// scheduler.
func (l *Link) QueueLen() int {
	n := l.queue.len() + l.prioQueue.len()
	if l.sched != nil {
		n += l.sched.Len()
	}
	return n
}

// Busy reports whether a frame is currently being serialized.
func (l *Link) Busy() bool { return l.busy }

// Send offers a frame to the link. If the queue has room it is accepted
// and will eventually be delivered (unless randomly lost); otherwise it
// is tail-dropped. Send reports whether the frame was accepted.
func (l *Link) Send(f *Frame) bool {
	if f.Size <= 0 {
		panic(fmt.Sprintf("netem: link %q sending frame with non-positive size %v", l.name, f.Size))
	}
	if l.cfg.QueueCap > 0 && l.queuedBytes+f.Size > l.cfg.QueueCap {
		l.stats.TailDrops++
		if l.OnDrop != nil {
			l.OnDrop(f, DropTail)
		}
		l.pool.Put(f)
		return false
	}
	f.enqueuedAt = l.clock.Now()
	switch {
	case f.Priority:
		l.prioQueue.push(f, l.pool)
	case l.sched != nil:
		if !l.sched.Push(f) {
			l.stats.SchedDrops++
			if l.OnDrop != nil {
				l.OnDrop(f, DropSched)
			}
			l.pool.Put(f)
			return false
		}
	default:
		l.queue.push(f, l.pool)
	}
	l.queuedBytes += f.Size
	l.stats.Enqueued++
	if n := l.QueueLen(); n > l.stats.MaxQueueLen {
		l.stats.MaxQueueLen = n
	}
	switch {
	case !l.busy:
		l.transmitTrain()
	case len(l.train) > 0 && len(l.train) < l.trainCap:
		// A train with room is mid-serialization: the arrival may join
		// it instead of waiting a full train cycle. This is what lets
		// coalescing survive smooth arrivals — a steady stream at the
		// service rate would otherwise always find the serializer busy
		// and form singleton trains forever.
		l.stretchTrain()
	}
	return true
}

// lossDraws consults the built-in Bernoulli process and the installed
// loss model for one serialized frame. Both draw unconditionally — each
// stream's consumption depends only on the frame sequence, never on the
// other process's outcome or the link's down state — so enabling one
// fault source cannot perturb another's draw order.
func (l *Link) lossDraws() bool {
	lost := l.cfg.LossProb > 0 && l.cfg.RNG.Bernoulli(l.cfg.LossProb)
	if l.lossModel != nil && l.lossModel.Drop() {
		lost = true
	}
	return lost
}

// deliverKey returns the position in the event order of the delivery of
// the train completing serialization now: the exact key clock.At would
// assign here, or the link's next lane key on a sharded fabric's trunk.
func (l *Link) deliverKey() sim.Key {
	at := l.arrivalInstant()
	if l.lane == 0 {
		return l.clock.Reserve(at)
	}
	l.laneSeq++
	return sim.LaneKey(at, l.clock.Now(), l.lane, l.laneSeq)
}

// scheduleDeliver places the train whose head just entered the
// propagation FIFO in the event order. The link keeps at most one
// delivery event in the clock's heap: the train's position is stored on
// its head frame, and the event itself is scheduled only if the train
// is at the front of the FIFO; otherwise onDeliverTrain schedules it
// when the train gets there. Deliveries on one link fire in FIFO order
// (constant delay, jitter clamped monotone by arrivalInstant), so a
// train's key is always later than that of the event pending before it,
// and every delivery fires exactly where a per-train event would have.
func (l *Link) scheduleDeliver(head *Frame) {
	head.deliverKey = l.deliverKey()
	if l.inflight.peek() == head {
		l.clock.AtKey(head.deliverKey, l.deliverFn)
	}
}

// arrivalInstant computes when the frame or train completing
// serialization now finishes propagating: now + Delay, plus jitter. With
// jitter installed, instants are clamped monotone so the in-flight FIFO
// pop discipline survives arbitrary extra delay (equal instants fire in
// scheduling order on the sim clock), and a jittered boundary link
// exports in delivery order.
func (l *Link) arrivalInstant() sim.Time {
	if l.jitter == nil && l.lastDeliverAt == 0 {
		return l.clock.Now().Add(l.cfg.Delay)
	}
	// Once any delivery has been jitter-scheduled, stay on the clamped
	// path even after the model is removed: a spike-delayed frame may
	// still be in flight, and an unclamped successor would overtake it.
	extra := time.Duration(0)
	if l.jitter != nil {
		extra = l.jitter.Extra()
	}
	at := l.clock.Now().Add(l.cfg.Delay + extra)
	if at.Before(l.lastDeliverAt) {
		at = l.lastDeliverAt
	}
	l.lastDeliverAt = at
	return at
}

// --- cell trains ------------------------------------------------------

// trainSource identifies the queue a forming train draws from. Control
// and data frames never share a train, and a scheduler-sourced train
// respects the scheduler's preemption points, so the source is fixed at
// formation and constrains who may join mid-serialization.
type trainSource uint8

const (
	trainSrcNone trainSource = iota
	trainSrcPrio
	trainSrcData
	trainSrcSched
)

// transmitTrain forms and serializes the next train. Formation rules:
//
//   - A train draws from exactly one source — the priority ring, the
//     data ring, or the installed scheduler — control before data,
//     FIFO (or the scheduler's pick) within each class. Control and
//     data frames never share a train, so priority precedence is
//     preserved at train granularity.
//   - Up to trainCap frames are taken, but only frames that are
//     already queued: arrivals during serialization join the next
//     train, exactly as a hardware burst-dequeue sees only its moment's
//     backlog.
//   - A scheduler that exposes its next pick's circuit (CircPeeker,
//     implemented by the EWMA scheduler) bounds the train to one
//     circuit: the train ends where the scheduler would preempt.
//     Schedulers without the method (FIFO) are circuit-agnostic and
//     coalesce freely, as does the built-in ring.
//
// The whole train serializes as one event at the formation-time rate
// over its summed bytes — SetRate mid-train therefore applies from the
// *next* train.
func (l *Link) transmitTrain() {
	l.train = l.train[:0]
	switch {
	case l.prioQueue.len() > 0:
		l.trainSrc = trainSrcPrio
		for len(l.train) < l.trainCap && l.prioQueue.len() > 0 {
			l.train = append(l.train, l.prioQueue.pop())
		}
	case l.queue.len() > 0:
		l.trainSrc = trainSrcData
		for len(l.train) < l.trainCap && l.queue.len() > 0 {
			l.train = append(l.train, l.queue.pop())
		}
	case l.sched != nil && l.sched.Len() > 0:
		l.trainSrc = trainSrcSched
		peeker, _ := l.sched.(CircPeeker)
		first := l.sched.Pop()
		l.train = append(l.train, first)
		for len(l.train) < l.trainCap && l.sched.Len() > 0 {
			if peeker != nil {
				if circ, ok := peeker.PeekCirc(); !ok || circ != first.Circ {
					break // scheduler preemption point: never span it
				}
			}
			l.train = append(l.train, l.sched.Pop())
		}
	default:
		l.trainSrc = trainSrcNone
		l.busy = false
		return
	}
	now := l.clock.Now()
	var bytes units.DataSize
	for _, f := range l.train {
		l.queuedBytes -= f.Size
		l.stats.QueueDelay += now.Sub(f.enqueuedAt)
		bytes += f.Size
	}
	l.busy = true
	l.trainRate = l.cfg.Rate
	l.trainDoneAt = now.Add(l.trainRate.TransmissionTime(bytes))
	l.txDoneEv = l.clock.At(l.trainDoneAt, l.txDoneFn)
}

// stretchTrain moves joinable queued frames into the train occupying
// the serializer, pushing its completion event back by each joiner's
// serialization time at the train's formation-time rate (a SetRate
// still applies from the next train, stretched or not). Only frames
// from the train's own source may join, and a scheduler-sourced train
// still ends at the scheduler's preemption point — stretching never
// reorders anything, it only re-draws the train boundary around frames
// that would have been next anyway.
func (l *Link) stretchTrain() {
	now := l.clock.Now()
	joined := false
	for len(l.train) < l.trainCap {
		var f *Frame
		switch l.trainSrc {
		case trainSrcPrio:
			if l.prioQueue.len() == 0 {
				goto done
			}
			f = l.prioQueue.pop()
		case trainSrcData:
			if l.queue.len() == 0 {
				goto done
			}
			f = l.queue.pop()
		case trainSrcSched:
			if l.sched == nil || l.sched.Len() == 0 {
				goto done
			}
			if peeker, ok := l.sched.(CircPeeker); ok {
				if circ, ok := peeker.PeekCirc(); !ok || circ != l.train[0].Circ {
					goto done
				}
			}
			f = l.sched.Pop()
		default:
			goto done
		}
		l.queuedBytes -= f.Size
		l.stats.QueueDelay += now.Sub(f.enqueuedAt)
		l.stats.TrainStretched++
		l.train = append(l.train, f)
		l.trainDoneAt = l.trainDoneAt.Add(l.trainRate.TransmissionTime(f.Size))
		joined = true
	}
done:
	if joined && !l.txDoneEv.Reschedule(l.trainDoneAt) {
		panic(fmt.Sprintf("netem: link %q stretching a train with no pending completion", l.name))
	}
}

// onTxDoneTrain moves a serialized train into the propagation stage.
// The loss process stays per-cell: each member gets its own Bernoulli
// draw, in queue order, so a mid-train cell can be lost while its
// neighbors survive — and a link's draw sequence is identical to what
// the same frame sequence would consume untrained. Survivors enter the
// propagation FIFO together, the first carrying their count; a
// fully-lost train reserves and schedules no delivery at all.
func (l *Link) onTxDoneTrain() {
	survived := 0
	var head *Frame // first survivor into the FIFO
	batch := l.deliverBuf[:0]
	for i, f := range l.train {
		lost := l.lossDraws()
		switch {
		case l.down:
			l.stats.DownDrops++
			if l.OnDrop != nil {
				l.OnDrop(f, DropDown)
			}
			l.pool.Put(f)
		case lost:
			l.stats.RandomLoss++
			if l.OnDrop != nil {
				l.OnDrop(f, DropLoss)
			}
			l.pool.Put(f)
		case l.export != nil:
			batch = append(batch, f)
			survived++
		default:
			if head == nil {
				head = f
			}
			l.inflight.push(f, l.pool)
			survived++
		}
		l.train[i] = nil
	}
	l.train = l.train[:0]
	if survived > 0 {
		switch {
		case l.export != nil:
			l.deliverBuf = batch
			l.export(batch, l.deliverKey())
			for i := range batch {
				batch[i] = nil
			}
			l.deliverBuf = l.deliverBuf[:0]
		default:
			head.trainLen = survived
			l.scheduleDeliver(head)
		}
	}
	l.transmitTrain()
}

// onDeliverTrain completes the propagation of the oldest in-flight
// train: its surviving members leave the FIFO as one batch. A
// destination that implements TrainHandler receives the whole batch in
// a single call (relays use this to amortize per-circuit lookups);
// otherwise members are handed over one Deliver at a time, in order.
func (l *Link) onDeliverTrain() {
	head := l.inflight.pop()
	n := head.trainLen
	batch := append(l.deliverBuf[:0], head)
	bytes := head.Size
	for i := 1; i < n; i++ {
		f := l.inflight.pop()
		batch = append(batch, f)
		bytes += f.Size
	}
	l.deliverBuf = batch
	// Hand the link's one heap slot to the next train in the FIFO, under
	// the key reserved when it entered propagation.
	if l.inflight.len() > 0 {
		l.clock.AtKey(l.inflight.peek().deliverKey, l.deliverFn)
	}
	l.stats.CellsDelivered += uint64(n)
	l.stats.TrainsDelivered++
	l.stats.BytesOut += bytes
	if th, ok := l.dst.(TrainHandler); ok && n > 1 {
		th.DeliverTrain(batch)
	} else {
		for _, f := range batch {
			l.dst.Deliver(f)
		}
	}
	for i, f := range batch {
		if l.terminal {
			l.pool.Put(f)
		}
		batch[i] = nil
	}
	l.deliverBuf = l.deliverBuf[:0]
}

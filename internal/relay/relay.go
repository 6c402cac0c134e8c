// Package relay implements the overlay relay node: circuit multiplexing,
// one onion-layer decryption per forwarded cell, and the wiring between
// the per-hop transport receiver (from the predecessor) and sender (to
// the successor) that produces the paper's feedback signal — "when
// forwarding a cell to its successor, each relay issues a feedback
// message to its predecessor, signaling cells are 'moving'".
package relay

import (
	"fmt"

	"circuitstart/internal/cell"
	"circuitstart/internal/netem"
	"circuitstart/internal/onion"
	"circuitstart/internal/resource"
	"circuitstart/internal/sched"
	"circuitstart/internal/sim"
	"circuitstart/internal/transport"
)

// Stats counts relay-level activity across all circuits. Admission
// refusals and scheduler (policer) drops are counted separately from
// the link-level tail drops in the port's LinkStats, so overload
// diagnostics aren't conflated with queue overflow.
type Stats struct {
	CellsForwarded    uint64 // cells passed to an onward sender
	Recognized        uint64 // cells that fully decrypted at this relay
	Corrupt           uint64 // recognized cells failing digest verification
	UnknownCircuit    uint64 // frames for circuits this relay doesn't carry
	UnknownSource     uint64 // frames from nodes that are neither pred nor succ
	FailedDrops       uint64 // frames blackholed while the relay was failed
	HungDrops         uint64 // frames blackholed while the relay was hung
	AdmissionRejected uint64 // hops refused by the resource manager
	SchedDrops        uint64 // frames dropped by the uplink scheduler/policer
}

// Config selects the relay's uplink scheduling discipline and resource
// limits. The zero value — FIFO, unlimited — leaves the relay
// byte-identical to an unconfigured one.
type Config struct {
	// Scheduler names the uplink data-frame discipline: "" or "fifo"
	// keep the link's built-in FIFO ring, "ewma" installs the Tor-style
	// quiet-circuit priority scheduler (sched.EWMA).
	Scheduler string
	// HalfLife is the EWMA decay half-life (0 = sched.DefaultHalfLife).
	// Ignored for FIFO.
	HalfLife sim.Time
	// Limits caps the relay's circuits, buffered cell memory and uplink
	// bandwidth (see resource.Limits; the zero value is unlimited).
	Limits resource.Limits
}

// Enabled reports whether the config changes anything over the default.
func (c Config) Enabled() bool {
	return (c.Scheduler != "" && c.Scheduler != "fifo") || c.Limits.Enabled()
}

// Validate rejects unknown scheduler names and malformed limits.
func (c Config) Validate() error {
	switch c.Scheduler {
	case "", "fifo", "ewma":
	default:
		return fmt.Errorf("relay: unknown scheduler %q (want fifo or ewma)", c.Scheduler)
	}
	if c.HalfLife < 0 {
		return fmt.Errorf("relay: negative scheduler half-life %v", c.HalfLife)
	}
	return c.Limits.Validate()
}

// hop is one circuit's state at this relay: an independent transport
// instance per direction. Forward runs pred → succ (one onion layer
// removed here); backward runs succ → pred (one layer added here; the
// exit relay additionally seals the plaintext first).
type hop struct {
	circ cell.CircID
	pred netem.NodeID
	succ netem.NodeID
	keys *onion.HopKeys
	exit bool

	recv *transport.Receiver // forward data from pred
	send *transport.Sender   // forward data to succ

	brecv *transport.Receiver // backward data from succ
	bsend *transport.Sender   // backward data to pred
}

// Relay is a store-and-forward overlay node. Attach it to a
// netem.Fabric (star or routed backbone — the relay is topology-blind),
// then add one forward hop per circuit passing through it.
type Relay struct {
	id     netem.NodeID
	clock  *sim.Clock
	port   *netem.Port
	hops   map[cell.CircID]*hop
	stats  Stats
	failed bool
	hung   bool

	// Resource management and scheduling, nil/absent by default (see
	// Configure). mgr enforces Config.Limits; sched is the installed
	// uplink scheduler, held concretely so RemoveHop can Forget circuits.
	mgr   *resource.Manager
	sched sched.Queue

	// segs recycles the boxed segment wrappers this relay attaches to
	// outgoing frames, and stores the buffers its hop senders grow.
	// core.Network shares one pool per network and reclaims wrappers
	// through the fabric FramePool's OnReclaim hook; a nil pool degrades
	// to plain allocation.
	segs *transport.SegmentPool

	// ackFlush is DeliverTrain's scratch list of receivers owing a
	// coalesced acknowledgment; it reaches its working set (distinct
	// circuit×direction runs per train) once and is reused.
	ackFlush []*transport.Receiver
}

// New creates a relay and attaches it to the fabric.
func New(id netem.NodeID, fab netem.Fabric, access netem.AccessConfig, rng *sim.RNG) *Relay {
	r := &Relay{
		id:    id,
		clock: fab.Clock(),
		hops:  make(map[cell.CircID]*hop),
	}
	r.port = fab.Attach(id, access, r, rng)
	return r
}

// UseSegmentPool wires the shared segment-wrapper pool (see
// core.Network). Must be set before traffic flows; nil is valid.
func (r *Relay) UseSegmentPool(sp *transport.SegmentPool) { r.segs = sp }

// Configure applies a scheduling/limits config to a fresh relay:
// non-FIFO disciplines (or a bandwidth cap) install a scheduler on the
// uplink, and enabled limits create the resource manager that AddHop
// consults. kill is invoked when a limit policy evicts a circuit; it
// must tear the circuit down across the whole network (core.Network
// wires its circuit teardown here). Configure must run before any
// circuit is added; calling it with a zero config is a no-op.
func (r *Relay) Configure(cfg Config, kill func(circ cell.CircID)) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if len(r.hops) > 0 {
		return fmt.Errorf("relay %s: Configure after circuits were added", r.id)
	}
	var q sched.Queue
	if cfg.Scheduler == "ewma" {
		q = sched.NewEWMA(r.clock, cfg.HalfLife.Duration())
	}
	if cfg.Limits.Bandwidth > 0 {
		if q == nil {
			q = sched.NewFIFO()
		}
		q = sched.NewPolice(q, r.clock, cfg.Limits.Bandwidth, cfg.Limits.Burst)
	}
	if q != nil {
		r.sched = q
		r.port.Uplink().SetScheduler(q)
	}
	if cfg.Limits.Enabled() {
		r.mgr = resource.NewManager(r.clock, cfg.Limits)
		r.mgr.OnKill(kill)
	}
	return nil
}

// Resources returns the relay's resource manager, or nil when the
// relay runs unlimited.
func (r *Relay) Resources() *resource.Manager { return r.mgr }

// ID returns the relay's node ID.
func (r *Relay) ID() netem.NodeID { return r.id }

// Port returns the relay's network attachment (for link stats in tests
// and experiments).
func (r *Relay) Port() *netem.Port { return r.port }

// Stats returns a snapshot of the relay counters, folding in the
// resource manager's admission refusals and the uplink scheduler's
// drops so callers see them beside the forwarding counters.
func (r *Relay) Stats() Stats {
	st := r.stats
	if r.mgr != nil {
		st.AdmissionRejected = r.mgr.Stats().Rejected
	}
	st.SchedDrops = r.port.Uplink().Stats().SchedDrops
	return st
}

// Fail takes the relay out of service: every frame delivered to it —
// data, ACKs, feedback, for any circuit — is blackholed (counted in
// Stats.FailedDrops) until Recover. Circuits crossing a failed relay
// stall on retransmission timers; a churn engine is expected to tear
// them down (and possibly rebuild them over a different path).
func (r *Relay) Fail() { r.failed = true }

// Recover puts a failed relay back in service. Per-circuit hop state
// torn down while it was failed is gone; new circuits may be built
// through it again.
func (r *Relay) Recover() { r.failed = false }

// Failed reports whether the relay is currently out of service.
func (r *Relay) Failed() bool { return r.failed }

// Hang puts the relay into the hung degradation mode: it blackholes
// every delivered frame (counted in Stats.HungDrops) exactly like a
// failed relay, but Failed() stays false — a hang is silent, nothing in
// the scripted churn machinery notices it. Endpoints only escape a hung
// relay through their own stall detection (see internal/faults).
func (r *Relay) Hang() { r.hung = true }

// Unhang clears the hung mode; frames flow again over whatever circuit
// state survived (transport retransmission recovers short hangs).
func (r *Relay) Unhang() { r.hung = false }

// Hung reports whether the relay is currently hung.
func (r *Relay) Hung() bool { return r.hung }

// Circuits returns the number of circuits currently crossing the relay.
func (r *Relay) Circuits() int { return len(r.hops) }

// HopSender returns the onward transport sender for a circuit, or nil.
// Experiments use it to observe per-relay window traces (the emergent
// back-propagation of the bottleneck window).
func (r *Relay) HopSender(circ cell.CircID) *transport.Sender {
	h := r.hops[circ]
	if h == nil {
		return nil
	}
	return h.send
}

// BackwardHopSender returns the backward-direction sender (toward the
// predecessor) for a circuit, or nil.
func (r *Relay) BackwardHopSender(circ cell.CircID) *transport.Sender {
	h := r.hops[circ]
	if h == nil {
		return nil
	}
	return h.bsend
}

// HopReceiver returns the inbound transport receiver for a circuit, or
// nil. Tests use it to assert reception-side invariants.
func (r *Relay) HopReceiver(circ cell.CircID) *transport.Receiver {
	h := r.hops[circ]
	if h == nil {
		return nil
	}
	return h.recv
}

// AddForwardHop registers a forward-only circuit hop (see AddHop).
func (r *Relay) AddForwardHop(circ cell.CircID, pred, succ netem.NodeID, keys *onion.HopKeys, params transport.Config) bool {
	return r.AddHop(circ, pred, succ, keys, params, false)
}

// AddHop registers a circuit through this relay, in both directions.
// Forward: cells arrive from pred, have one onion layer removed with
// keys, and are forwarded to succ. Backward: cells arrive from succ,
// gain one layer (the exit relay seals the plaintext first), and are
// forwarded to pred. params is a template whose Clock, Circ, Send and
// OnFirstTransmit fields are filled in here, once per direction.
//
// AddHop reports whether the circuit was admitted: a relay configured
// with resource limits may refuse it (or evict another circuit to make
// room, under a kill policy). Unlimited relays always admit.
func (r *Relay) AddHop(circ cell.CircID, pred, succ netem.NodeID, keys *onion.HopKeys, params transport.Config, exit bool) bool {
	if _, dup := r.hops[circ]; dup {
		panic(fmt.Sprintf("relay %s: circuit %d added twice", r.id, circ))
	}
	if keys == nil {
		panic(fmt.Sprintf("relay %s: circuit %d without hop keys", r.id, circ))
	}
	if r.mgr != nil && !r.mgr.Admit(circ) {
		return false
	}
	h := &hop{circ: circ, pred: pred, succ: succ, keys: keys, exit: exit}

	// On a train-running port, per-cell upstream signalling coalesces to
	// burst boundaries (one FEEDBACK per pump drain, one ACK per train).
	batch := r.port.Config().TrainSize > 1

	fwd := params
	fwd.Clock = r.clock
	fwd.Circ = circ
	fwd.Send = func(seg transport.Segment) bool {
		seg.Dir = transport.DirForward
		return sendSegment(r.segs, r.port, succ, seg)
	}
	// The feedback chain: the first onward transmission of a cell is
	// the moment this relay "forwards" it, which the receiver reports
	// upstream as FEEDBACK.
	fwd.BatchSignals = batch
	fwd.OnFirstTransmit = func(count uint64) {
		h.recv.NotifyForwarded(count)
	}
	if r.mgr != nil {
		// Memory accounting: both directions' senders report their held
		// cells (queued + retained) to the manager.
		fwd.OnHeld = func(delta int) { r.mgr.Held(circ, delta) }
	}
	h.send = transport.NewSender(fwd)
	h.send.UseSegmentPool(r.segs)

	h.recv = transport.NewReceiver(circ,
		func(seg transport.Segment) bool {
			seg.Dir = transport.DirForward
			return sendSegment(r.segs, r.port, pred, seg)
		},
		func(c *cell.Cell) { r.processCell(h, c) },
	)

	back := params
	back.Clock = r.clock
	back.Circ = circ
	back.Send = func(seg transport.Segment) bool {
		seg.Dir = transport.DirBackward
		return sendSegment(r.segs, r.port, pred, seg)
	}
	back.BatchSignals = batch
	back.OnFirstTransmit = func(count uint64) {
		h.brecv.NotifyForwarded(count)
	}
	if r.mgr != nil {
		back.OnHeld = func(delta int) { r.mgr.Held(circ, delta) }
	}
	h.bsend = transport.NewSender(back)
	h.bsend.UseSegmentPool(r.segs)

	h.brecv = transport.NewReceiver(circ,
		func(seg transport.Segment) bool {
			seg.Dir = transport.DirBackward
			return sendSegment(r.segs, r.port, succ, seg)
		},
		func(c *cell.Cell) { r.processBackwardCell(h, c) },
	)

	r.hops[circ] = h
	return true
}

// RemoveHop tears a circuit's state out of the relay, in both
// directions: all four transport instances are closed (their timers'
// events return to the clock's free list), queued cells are dropped for
// the collector (cells at a relay are aliased by neighbouring hops'
// retransmission state, so they must not be recycled here — see
// DESIGN.md, "Teardown ownership"), and later frames for the circuit
// are absorbed by the UnknownCircuit counter. It reports whether the
// circuit was present.
func (r *Relay) RemoveHop(circ cell.CircID) bool {
	h := r.hops[circ]
	if h == nil {
		return false
	}
	h.send.Close()
	h.bsend.Close()
	h.recv.Close()
	h.brecv.Close()
	delete(r.hops, circ)
	if r.mgr != nil {
		// The senders' Close just reported their held cells back through
		// OnHeld; now drop the circuit's admission slot.
		r.mgr.Release(circ)
	}
	if r.sched != nil {
		r.sched.Forget(uint32(circ))
	}
	return true
}

// sendSegment transmits a hop segment, giving control segments (ACK,
// FEEDBACK, PROBE) link priority so congestion feedback is not delayed
// by the data queues it describes. Data frames carry their circuit ID
// so installed circuit schedulers can tell flows apart.
//
// The segment rides the frame as a pooled *Segment wrapper: boxing the
// value directly would allocate on every hop transmission, the single
// hottest allocation site of a transfer. The wrapper returns to sp via
// the fabric FramePool's OnReclaim hook when the frame dies; a nil
// pool allocates a fresh wrapper per call.
func sendSegment(sp *transport.SegmentPool, p *netem.Port, dst netem.NodeID, seg transport.Segment) bool {
	s := sp.Get()
	*s = seg
	if seg.Kind == transport.KindData {
		return p.SendCirc(dst, seg.WireSize(), s, uint32(seg.Circ))
	}
	return p.SendPriority(dst, seg.WireSize(), s)
}

// processCell removes this relay's onion layer and forwards the cell.
// If the cell becomes recognized here (this relay is the circuit's last
// onion hop), its digest is verified and the plaintext travels on to the
// destination over the final transport hop.
//
// Only the exit may declare corruption. At any earlier hop the payload
// is still ciphertext, and ciphertext that happens to parse as a
// recognized header with a bad digest is just an unrecognized cell: it
// is forwarded untouched. Dropping it there loses a cell the hop
// transport has already acknowledged, which nothing resends.
func (r *Relay) processCell(h *hop, c *cell.Cell) {
	h.keys.DecryptForward(c)
	if hdr, _, err := c.Relay(); err == nil && hdr.Recognized == 0 {
		if h.keys.VerifyForward(c) {
			r.stats.Recognized++
		} else if h.exit && looksRecognized(hdr) {
			r.stats.Corrupt++
			return
		}
	}
	r.stats.CellsForwarded++
	h.send.Enqueue(c)
}

// processBackwardCell handles one in-order backward cell from the
// successor: the exit relay (whose successor is the destination
// endpoint, outside the onion) seals the plaintext with its backward
// digest first; every relay then adds its backward encryption layer and
// forwards toward the predecessor. The client removes all layers.
func (r *Relay) processBackwardCell(h *hop, c *cell.Cell) {
	if h.exit {
		h.keys.SealBackward(c)
	}
	h.keys.EncryptBackward(c)
	r.stats.CellsForwarded++
	h.bsend.Enqueue(c)
}

// looksRecognized distinguishes a genuinely plaintext-looking header
// from garbage that happens to have Recognized == 0: a real relay
// header has a known command.
func looksRecognized(hdr cell.RelayHeader) bool {
	return hdr.Cmd >= cell.RelayData && hdr.Cmd <= cell.RelaySendme
}

// Deliver demultiplexes a frame from the network to the right hop and
// direction (netem.Handler).
func (r *Relay) Deliver(f *netem.Frame) {
	if r.failed {
		r.stats.FailedDrops++
		return
	}
	if r.hung {
		r.stats.HungDrops++
		return
	}
	seg, ok := f.Payload.(*transport.Segment)
	if !ok {
		panic(fmt.Sprintf("relay %s: non-segment frame from %s", r.id, f.Src))
	}
	h := r.hops[seg.Circ]
	if h == nil {
		r.stats.UnknownCircuit++
		return
	}
	r.dispatch(h, f.Src, seg)
}

// DeliverTrain demultiplexes a whole cell train in one call
// (netem.TrainHandler). A train is typically a same-circuit run — the
// EWMA scheduler guarantees it, FIFO bursts usually are — so the
// circuit-table lookup is hoisted across the run: the per-cell onion
// work stays, but the per-cell demux bookkeeping is paid once per run
// instead of once per cell.
func (r *Relay) DeliverTrain(fs []*netem.Frame) {
	if r.failed {
		r.stats.FailedDrops += uint64(len(fs))
		return
	}
	if r.hung {
		r.stats.HungDrops += uint64(len(fs))
		return
	}
	var h *hop
	var hCirc cell.CircID
	for _, f := range fs {
		seg, ok := f.Payload.(*transport.Segment)
		if !ok {
			panic(fmt.Sprintf("relay %s: non-segment frame from %s", r.id, f.Src))
		}
		if h == nil || seg.Circ != hCirc {
			h, hCirc = r.hops[seg.Circ], seg.Circ
		}
		if h == nil {
			r.stats.UnknownCircuit++
			continue
		}
		if rcv := r.dispatchBatched(h, f.Src, seg); rcv != nil {
			r.ackFlush = append(r.ackFlush, rcv)
		}
	}
	// One cumulative FEEDBACK+ACK pair per receiver that saw data in
	// this train, instead of one per cell.
	for i, rcv := range r.ackFlush {
		rcv.Flush()
		r.ackFlush[i] = nil
	}
	r.ackFlush = r.ackFlush[:0]
}

// dispatch routes one segment to the hop's transport instance for its
// (source, direction, kind).
func (r *Relay) dispatch(h *hop, src netem.NodeID, seg *transport.Segment) {
	switch src {
	case h.pred:
		if seg.Dir == transport.DirBackward {
			// Control for our backward sender.
			switch seg.Kind {
			case transport.KindAck:
				h.bsend.HandleAck(seg.Count)
			case transport.KindFeedback:
				h.bsend.HandleFeedback(seg.Count)
			default:
				r.stats.UnknownSource++
			}
			return
		}
		// Inbound forward data path.
		switch seg.Kind {
		case transport.KindData:
			h.recv.HandleData(seg.Seq, seg.Cell)
		case transport.KindProbe:
			h.recv.HandleProbe()
		default:
			r.stats.UnknownSource++
		}
	case h.succ:
		if seg.Dir == transport.DirBackward {
			// Inbound backward data path.
			switch seg.Kind {
			case transport.KindData:
				h.brecv.HandleData(seg.Seq, seg.Cell)
			case transport.KindProbe:
				h.brecv.HandleProbe()
			default:
				r.stats.UnknownSource++
			}
			return
		}
		// Control for our forward sender.
		switch seg.Kind {
		case transport.KindAck:
			h.send.HandleAck(seg.Count)
		case transport.KindFeedback:
			h.send.HandleFeedback(seg.Count)
		default:
			r.stats.UnknownSource++
		}
	default:
		r.stats.UnknownSource++
	}
}

// dispatchBatched is dispatch for cell-train delivery: data segments
// defer their acknowledgment (Receiver.HandleDataBatched), and the
// receiver that newly owes an ack is returned so DeliverTrain can flush
// it once after the whole train is processed. Control segments are
// handled exactly as in dispatch.
func (r *Relay) dispatchBatched(h *hop, src netem.NodeID, seg *transport.Segment) *transport.Receiver {
	switch src {
	case h.pred:
		if seg.Dir == transport.DirBackward {
			switch seg.Kind {
			case transport.KindAck:
				h.bsend.HandleAck(seg.Count)
			case transport.KindFeedback:
				h.bsend.HandleFeedback(seg.Count)
			default:
				r.stats.UnknownSource++
			}
			return nil
		}
		switch seg.Kind {
		case transport.KindData:
			if h.recv.HandleDataBatched(seg.Seq, seg.Cell) {
				return h.recv
			}
		case transport.KindProbe:
			h.recv.HandleProbe()
		default:
			r.stats.UnknownSource++
		}
	case h.succ:
		if seg.Dir == transport.DirBackward {
			switch seg.Kind {
			case transport.KindData:
				if h.brecv.HandleDataBatched(seg.Seq, seg.Cell) {
					return h.brecv
				}
			case transport.KindProbe:
				h.brecv.HandleProbe()
			default:
				r.stats.UnknownSource++
			}
			return nil
		}
		switch seg.Kind {
		case transport.KindAck:
			h.send.HandleAck(seg.Count)
		case transport.KindFeedback:
			h.send.HandleFeedback(seg.Count)
		default:
			r.stats.UnknownSource++
		}
	default:
		r.stats.UnknownSource++
	}
	return nil
}

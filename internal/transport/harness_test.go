package transport

import (
	"testing"
	"time"

	"circuitstart/internal/cell"
	"circuitstart/internal/netem"
	"circuitstart/internal/sim"
	"circuitstart/internal/units"
)

// hopHarness wires one Sender and one Receiver across a two-node netem
// star, giving transport unit tests realistic serialization and
// propagation behaviour. The receiving side acts as a sink with a
// configurable forwarding rate: rate 0 forwards (delivers) instantly,
// a positive rate emulates a constrained successor that forwards one
// cell per serialization time.
type hopHarness struct {
	t     *testing.T
	clock *sim.Clock
	star  *netem.StarFabric

	sender *Sender
	recv   *Receiver

	delivered    []*cell.Cell
	lastDelivery sim.Time

	// forwarding emulation at the receiver
	fwdRate  units.DataRate
	fwdQueue int
	fwdBusy  bool
	fwdCount uint64
}

// simSecond is one virtual second, for ad-hoc horizon checks.
const simSecond = sim.Time(time.Second)

// newClockForTest returns a fresh simulation clock.
func newClockForTest() *sim.Clock { return sim.NewClock() }

type harnessConfig struct {
	senderCfg Config // Clock/Send filled in by the harness
	srcRate   units.DataRate
	dstRate   units.DataRate
	delay     time.Duration
	fwdRate   units.DataRate // 0 = instant forwarding at the receiver
	lossProb  float64        // applied on the forward (src uplink) link
	queueCap  units.DataSize
	circ      cell.CircID
}

func newHopHarness(t *testing.T, hc harnessConfig) *hopHarness {
	t.Helper()
	if hc.srcRate == 0 {
		hc.srcRate = units.Mbps(16)
	}
	if hc.dstRate == 0 {
		hc.dstRate = units.Mbps(16)
	}
	if hc.delay == 0 {
		hc.delay = 10 * time.Millisecond
	}
	h := &hopHarness{t: t, clock: sim.NewClock(), fwdRate: hc.fwdRate}
	h.star = netem.NewStarFabric(h.clock)

	var rng *sim.RNG
	if hc.lossProb > 0 {
		rng = sim.NewRNG(1234, "harness-loss")
	}
	srcPort := h.star.Attach("src", netem.AccessConfig{
		UpRate: hc.srcRate, DownRate: hc.srcRate, Delay: hc.delay,
		QueueCap: hc.queueCap, LossProb: hc.lossProb,
	}, netem.HandlerFunc(h.deliverToSender), rng)
	dstPort := h.star.Attach("dst", netem.AccessConfig{
		UpRate: hc.dstRate, DownRate: hc.dstRate, Delay: hc.delay,
		QueueCap: hc.queueCap,
	}, netem.HandlerFunc(h.deliverToReceiver), nil)

	cfg := hc.senderCfg
	cfg.Clock = h.clock
	cfg.Circ = hc.circ
	cfg.Send = func(seg Segment) bool {
		return srcPort.Send("dst", seg.WireSize(), seg)
	}
	h.sender = NewSender(cfg)

	h.recv = NewReceiver(hc.circ, func(seg Segment) bool {
		return dstPort.Send("src", seg.WireSize(), seg)
	}, h.consume)
	return h
}

// deliverToReceiver handles frames arriving at the dst node.
func (h *hopHarness) deliverToReceiver(f *netem.Frame) {
	seg := f.Payload.(Segment)
	switch seg.Kind {
	case KindData:
		h.recv.HandleData(seg.Seq, seg.Cell)
	case KindProbe:
		h.recv.HandleProbe()
	default:
		h.t.Fatalf("receiver got unexpected segment %v", seg)
	}
}

// deliverToSender handles control frames arriving back at the src node.
func (h *hopHarness) deliverToSender(f *netem.Frame) {
	seg := f.Payload.(Segment)
	switch seg.Kind {
	case KindAck:
		h.sender.HandleAck(seg.Count)
	case KindFeedback:
		h.sender.HandleFeedback(seg.Count)
	default:
		h.t.Fatalf("sender got unexpected segment %v", seg)
	}
}

// consume models the receiving node's forwarding stage.
func (h *hopHarness) consume(c *cell.Cell) {
	h.delivered = append(h.delivered, c)
	h.lastDelivery = h.clock.Now()
	if h.fwdRate == 0 {
		h.fwdCount++
		h.recv.NotifyForwarded(h.fwdCount)
		return
	}
	h.fwdQueue++
	h.pumpForward()
}

func (h *hopHarness) pumpForward() {
	if h.fwdBusy || h.fwdQueue == 0 {
		return
	}
	h.fwdBusy = true
	h.fwdQueue--
	h.clock.After(h.fwdRate.TransmissionTime(DataWireSize), func() {
		h.fwdCount++
		h.recv.NotifyForwarded(h.fwdCount)
		h.fwdBusy = false
		h.pumpForward()
	})
}

// sendCells enqueues n distinct data cells at the sender.
func (h *hopHarness) sendCells(n int) {
	for i := 0; i < n; i++ {
		c := &cell.Cell{Circ: 1, Cmd: cell.CmdRelay}
		c.Payload[0] = byte(i)
		c.Payload[1] = byte(i >> 8)
		c.Payload[2] = byte(i >> 16)
		h.sender.Enqueue(c)
	}
}

// run drives the simulation until quiescence or the horizon.
func (h *hopHarness) run(horizon time.Duration) {
	h.clock.RunUntil(sim.Time(horizon))
}

// assertDeliveredInOrder checks that exactly n cells arrived, in the
// order they were enqueued.
func (h *hopHarness) assertDeliveredInOrder(n int) {
	h.t.Helper()
	if len(h.delivered) != n {
		h.t.Fatalf("delivered %d cells, want %d", len(h.delivered), n)
	}
	for i, c := range h.delivered {
		got := int(c.Payload[0]) | int(c.Payload[1])<<8 | int(c.Payload[2])<<16
		if got != i {
			h.t.Fatalf("cell %d carries index %d: order violated", i, got)
		}
	}
}

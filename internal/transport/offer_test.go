package transport

import (
	"fmt"
	"testing"
	"time"

	"circuitstart/internal/cell"
	"circuitstart/internal/sim"
	"circuitstart/internal/units"
)

// offerRun feeds one hop three batches of cells — at the start, while
// the first is still backlogged, and after the hop has drained — either
// by Enqueue, cell by cell, or by Offer with the cells built on demand.
// It returns everything observable: the window trace, each delivery
// with its instant, the sender's counters and the clock's event count.
func offerRun(t *testing.T, hc harnessConfig, offer bool) (log []string, produced int) {
	t.Helper()
	var h *hopHarness
	indexed := func(i int) *cell.Cell {
		c := &cell.Cell{Circ: 1, Cmd: cell.CmdRelay}
		c.Payload[0], c.Payload[1] = byte(i), byte(i>>8)
		return c
	}
	hc.senderCfg.OnCwnd = func(cwnd float64, phase Phase) {
		if h != nil {
			log = append(log, fmt.Sprintf("%v cwnd %.3f %v", h.clock.Now(), cwnd, phase))
		}
	}
	hc.senderCfg.Produce = func() *cell.Cell {
		produced++
		return indexed(produced - 1)
	}
	h = newHopHarness(t, hc)
	submitted := 0
	for _, b := range []struct {
		at time.Duration
		n  int
	}{{0, 300}, {150 * time.Millisecond, 50}, {20 * time.Second, 40}} {
		b := b
		h.clock.At(sim.Time(b.at), func() {
			log = append(log, fmt.Sprintf("%v submit %d onto %d queued, idle %v", h.clock.Now(), b.n, h.sender.QueueLen(), h.sender.Idle()))
			if offer {
				h.sender.Offer(b.n)
			} else {
				for i := 0; i < b.n; i++ {
					h.sender.Enqueue(indexed(submitted + i))
				}
			}
			submitted += b.n
			log = append(log, fmt.Sprintf("%v queued %d in flight %d", h.clock.Now(), h.sender.QueueLen(), h.sender.InFlight()))
		})
	}
	h.run(60 * time.Second)
	h.assertDeliveredInOrder(submitted)
	if !h.sender.Idle() {
		t.Fatalf("sender not idle at the horizon: %s", debugState(h.sender))
	}
	log = append(log, fmt.Sprintf("last delivery %v", h.lastDelivery),
		fmt.Sprintf("stats %+v", h.sender.Stats()),
		fmt.Sprintf("events %d", h.clock.Processed()))
	return log, produced
}

// TestOfferedBacklogBehavesLikeAnEnqueuedQueue is the contract on-demand
// packetization rests on: because QueueLen counts the unproduced
// backlog, a sender offered n cells takes every decision — window,
// rounds, exit measurement and its starvation verdict, RTO recovery,
// re-probe, probe timer — exactly as one holding the n cells in its
// queue, down to the number of events the run costs. Only the moment a
// cell comes into existence differs: Produce runs once per first
// transmission.
func TestOfferedBacklogBehavesLikeAnEnqueuedQueue(t *testing.T) {
	for name, hc := range map[string]harnessConfig{
		"circuitstart, constrained successor": {fwdRate: units.Mbps(4)},
		"slow start, constrained successor":   {fwdRate: units.Mbps(4), senderCfg: Config{Startup: NewClassicSlowStart()}},
		"lossy link":                          {lossProb: 0.03},
		"re-probe and severe remeasure":       {fwdRate: units.Mbps(2), senderCfg: Config{RestartRounds: 3, SevereRemeasure: 2}},
		"ack clocked":                         {fwdRate: units.Mbps(4), senderCfg: Config{WindowClock: ClockAck}},
		"batched signals":                     {fwdRate: units.Mbps(4), senderCfg: Config{BatchSignals: true, OnFirstTransmit: func(uint64) {}}},
	} {
		hc := hc
		t.Run(name, func(t *testing.T) {
			want, never := offerRun(t, hc, false)
			got, produced := offerRun(t, hc, true)
			if never != 0 {
				t.Fatalf("Produce ran %d times on a sender fed by Enqueue", never)
			}
			if produced != 390 {
				t.Fatalf("Produce ran %d times for 390 offered cells", produced)
			}
			if len(got) != len(want) {
				t.Fatalf("offered run logged %d lines, enqueued run %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("line %d differs:\n offered:  %s\n enqueued: %s", i, got[i], want[i])
				}
			}
		})
	}
}

func TestOfferNeedsProduce(t *testing.T) {
	s := NewSender(Config{Clock: sim.NewClock(), Send: func(Segment) bool { return true }})
	defer func() {
		if recover() == nil {
			t.Fatal("Offer on a sender without Produce did not panic")
		}
	}()
	s.Offer(1)
}

// TestOfferedCellsCountAsHeldOnceProduced: OnHeld accounts cells that
// exist. An offered cell joins the count when Produce builds it, leaves
// on its ACK, and the unproduced backlog never enters it — so Close
// releases exactly what is retained.
func TestOfferedCellsCountAsHeldOnceProduced(t *testing.T) {
	held := 0
	s := NewSender(Config{
		Clock:   sim.NewClock(),
		Send:    func(Segment) bool { return true },
		OnHeld:  func(d int) { held += d },
		Produce: func() *cell.Cell { return &cell.Cell{} },
	})
	s.Offer(10)
	if sent := int(s.Stats().Transmitted); sent == 0 || sent == 10 || held != sent {
		t.Fatalf("held = %d after Offer(10) transmitted %d; want the initial window, all of it held", held, sent)
	}
	s.HandleAck(1)
	if want := s.Unacked(); held != want {
		t.Fatalf("held = %d after an ACK, want the %d unacked", held, want)
	}
	s.Close()
	if held != 0 || s.QueueLen() != 0 {
		t.Fatalf("held = %d, QueueLen = %d after Close; want 0, 0", held, s.QueueLen())
	}
}

// debugState renders the sender's internal state for a failure message.
func debugState(s *Sender) string {
	return fmt.Sprintf("phase=%v cwnd=%.1f measuring=%v aligned=%v starved=%v roundActive=%v budget=%d boundary=%d sent=%d acked=%d fb=%d queue=%d inflight=%d exitTimerArmed=%v rtoArmed=%v",
		s.phase, s.cwnd, s.exitMeasuring, s.exitAligned, s.exitStarved, s.roundActive, s.roundBudget, s.roundBoundary,
		s.nextSeq, s.acked, s.feedback, s.QueueLen(), s.InFlight(), s.exitTimer.Armed(), s.rtoTimer.Armed())
}

package transport

import (
	"testing"
	"time"

	"circuitstart/internal/cell"
	"circuitstart/internal/units"
)

// collectReceiver builds a Receiver delivering into a slice, with sent
// control segments captured.
func collectReceiver(t *testing.T) (*Receiver, *[]*cell.Cell, *[]Segment) {
	t.Helper()
	var delivered []*cell.Cell
	var ctrl []Segment
	r := NewReceiver(7, func(seg Segment) bool {
		ctrl = append(ctrl, seg)
		return true
	}, func(c *cell.Cell) { delivered = append(delivered, c) })
	return r, &delivered, &ctrl
}

func mkCell(i int) *cell.Cell {
	c := &cell.Cell{Circ: 7, Cmd: cell.CmdRelay}
	c.Payload[0] = byte(i)
	return c
}

func TestReceiverInOrder(t *testing.T) {
	r, delivered, ctrl := collectReceiver(t)
	for i := 0; i < 5; i++ {
		r.HandleData(uint64(i), mkCell(i))
	}
	if len(*delivered) != 5 {
		t.Fatalf("delivered %d", len(*delivered))
	}
	if r.Expected() != 5 {
		t.Errorf("Expected() = %d", r.Expected())
	}
	// Every data segment triggers a cumulative ACK 1..5.
	if len(*ctrl) != 5 {
		t.Fatalf("sent %d control segments", len(*ctrl))
	}
	for i, seg := range *ctrl {
		if seg.Kind != KindAck || seg.Count != uint64(i+1) || seg.Circ != 7 {
			t.Errorf("ctrl[%d] = %v", i, seg)
		}
	}
}

func TestReceiverReordersOutOfOrder(t *testing.T) {
	r, delivered, ctrl := collectReceiver(t)
	r.HandleData(2, mkCell(2))
	r.HandleData(0, mkCell(0))
	r.HandleData(1, mkCell(1))
	if len(*delivered) != 3 {
		t.Fatalf("delivered %d", len(*delivered))
	}
	for i, c := range *delivered {
		if int(c.Payload[0]) != i {
			t.Errorf("delivered[%d] = cell %d", i, c.Payload[0])
		}
	}
	// ACK counts: after seq2 → 0 (gap), after seq0 → 1, after seq1 → 3.
	wantCounts := []uint64{0, 1, 3}
	for i, seg := range *ctrl {
		if seg.Count != wantCounts[i] {
			t.Errorf("ack %d count = %d, want %d", i, seg.Count, wantCounts[i])
		}
	}
	if len(r.buffer) != 0 {
		t.Errorf("%d cells still parked after the gap filled", len(r.buffer))
	}
}

func TestReceiverDuplicates(t *testing.T) {
	r, delivered, ctrl := collectReceiver(t)
	r.HandleData(0, mkCell(0))
	r.HandleData(0, mkCell(0)) // dup of delivered
	r.HandleData(3, mkCell(3))
	r.HandleData(3, mkCell(3)) // dup of buffered
	if len(*delivered) != 1 {
		t.Fatalf("delivered %d, want 1", len(*delivered))
	}
	if len(r.buffer) != 1 {
		t.Errorf("%d cells parked, want seq 3 once", len(r.buffer))
	}
	// Duplicates still elicit (re-)ACKs so a lost ACK heals.
	if len(*ctrl) != 4 {
		t.Errorf("sent %d acks, want 4", len(*ctrl))
	}
}

func TestReceiverNotifyForwarded(t *testing.T) {
	r, _, ctrl := collectReceiver(t)
	for i := 0; i < 3; i++ {
		r.HandleData(uint64(i), mkCell(i))
	}
	*ctrl = (*ctrl)[:0]
	r.NotifyForwarded(2)
	r.NotifyForwarded(2) // no-op: already reported
	r.NotifyForwarded(1) // no-op: regression
	r.NotifyForwarded(3)
	if len(*ctrl) != 2 {
		t.Fatalf("sent %d feedback segments, want 2: %v", len(*ctrl), *ctrl)
	}
	if (*ctrl)[0].Kind != KindFeedback || (*ctrl)[0].Count != 2 {
		t.Errorf("first feedback = %v", (*ctrl)[0])
	}
	if (*ctrl)[1].Count != 3 {
		t.Errorf("second feedback = %v", (*ctrl)[1])
	}
}

func TestReceiverNotifyForwardedBeyondDeliveredPanics(t *testing.T) {
	r, _, _ := collectReceiver(t)
	r.HandleData(0, mkCell(0))
	defer func() {
		if recover() == nil {
			t.Error("no panic for forwarding more than delivered")
		}
	}()
	r.NotifyForwarded(2)
}

func TestReceiverValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	send := func(Segment) bool { return true }
	deliver := func(*cell.Cell) {}
	mustPanic("nil send", func() { NewReceiver(1, nil, deliver) })
	mustPanic("nil deliver", func() { NewReceiver(1, send, nil) })
	r := NewReceiver(1, send, deliver)
	mustPanic("nil cell", func() { r.HandleData(0, nil) })
}

// --- loss and recovery over the netem harness -------------------------

func TestRecoveryFromSingleLoss(t *testing.T) {
	// A tiny queue cap forces a tail drop during the ramp; the RTO must
	// recover it and the full transfer must complete in order.
	h := newHopHarness(t, harnessConfig{
		queueCap: 8 * DataWireSize,
	})
	h.sendCells(200)
	h.run(120 * time.Second)
	h.assertDeliveredInOrder(200)
	st := h.sender.Stats()
	if st.WireRejected == 0 {
		t.Skip("no drop occurred with these parameters; scenario not exercised")
	}
	if st.Retransmitted == 0 {
		t.Error("drops occurred but nothing was retransmitted")
	}
}

func TestRecoveryFromRandomLoss(t *testing.T) {
	// 5% random loss on the forward path: reliability must deliver
	// everything, in order, exactly once.
	h := newHopHarness(t, harnessConfig{lossProb: 0.05})
	h.sendCells(400)
	h.run(300 * time.Second)
	h.assertDeliveredInOrder(400)
	st := h.sender.Stats()
	if st.Retransmitted == 0 {
		t.Error("5% loss but zero retransmissions")
	}
	t.Logf("loss recovery: %d first transmissions, %d retransmissions, %d RTOs",
		st.Transmitted, st.Retransmitted, st.RTOs)
}

func TestRecoveryUnderHeavyLossWithBothPolicies(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy Startup
	}{
		{"circuitstart", newCircuitStart()},
		{"slowstart", &classicSlowStart{Gamma: defaultGamma}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newHopHarness(t, harnessConfig{
				lossProb:  0.15,
				senderCfg: Config{Startup: tc.policy},
			})
			h.sendCells(150)
			h.run(600 * time.Second)
			h.assertDeliveredInOrder(150)
		})
	}
}

func TestThroughputUnderBottleneckMatchesRate(t *testing.T) {
	// Goodput through a 2 Mbit/s forwarding stage must approach
	// 2 Mbit/s of wire data once the ramp settles.
	h := newHopHarness(t, harnessConfig{fwdRate: units.Mbps(2)})
	const n = 2000
	h.sendCells(n)
	h.run(120 * time.Second)
	h.assertDeliveredInOrder(n)
	elapsed := h.lastDelivery.Duration()
	rate := units.RateFromTransfer(units.DataSize(n)*DataWireSize, elapsed)
	if r := rate.Mbit(); r < 1.6 || r > 2.05 {
		t.Errorf("goodput %.2f Mbit/s through a 2 Mbit/s forwarder", r)
	}
}

// TestReceiverMakesReorderMapOnDemand pins that an in-order hop never
// builds the reorder map: it is made by the first out-of-order arrival.
func TestReceiverMakesReorderMapOnDemand(t *testing.T) {
	r, delivered, _ := collectReceiver(t)
	for i := 0; i < 3; i++ {
		r.HandleData(uint64(i), mkCell(i))
	}
	if r.buffer != nil {
		t.Fatal("in-order arrivals made the reorder map")
	}
	r.HandleData(4, mkCell(4))
	if r.buffer == nil {
		t.Fatal("an out-of-order arrival was not parked")
	}
	r.HandleData(3, mkCell(3))
	if len(*delivered) != 5 || r.Expected() != 5 {
		t.Fatalf("delivered %d cells, expected %d; want 5, 5", len(*delivered), r.Expected())
	}
}

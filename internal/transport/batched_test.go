package transport

import (
	"testing"

	"circuitstart/internal/cell"
)

func TestBatchedDeliveryDefersAckUntilFlush(t *testing.T) {
	r, delivered, ctrl := collectReceiver(t)
	for i := 0; i < 4; i++ {
		first := r.HandleDataBatched(uint64(i), mkCell(i))
		if want := i == 0; first != want {
			t.Errorf("HandleDataBatched(%d) first-deferral = %v, want %v", i, first, want)
		}
	}
	if len(*delivered) != 4 {
		t.Fatalf("delivered %d cells mid-batch, want 4 (delivery is not deferred)", len(*delivered))
	}
	if len(*ctrl) != 0 {
		t.Fatalf("sent %d control segments before Flush, want 0", len(*ctrl))
	}
	r.Flush()
	if len(*ctrl) != 1 {
		t.Fatalf("Flush sent %d segments, want 1 cumulative ack", len(*ctrl))
	}
	if seg := (*ctrl)[0]; seg.Kind != KindAck || seg.Count != 4 || seg.Circ != 7 {
		t.Errorf("flushed segment = %+v, want ack count 4", seg)
	}
	// A second Flush with nothing pending must send nothing.
	r.Flush()
	if len(*ctrl) != 1 {
		t.Errorf("idempotent Flush sent %d extra segments", len(*ctrl)-1)
	}
}

func TestBatchedFlushOrdersFeedbackBeforeAck(t *testing.T) {
	// A relay's delivery chain forwards each cell synchronously and
	// reports it via NotifyForwarded from inside the batched handler.
	// Those reports must park and come out of Flush as one cumulative
	// FEEDBACK, sent before the ack — the same relative order the
	// per-cell path produces.
	var ctrl []Segment
	var r *Receiver
	r = NewReceiver(9, func(seg Segment) bool {
		ctrl = append(ctrl, seg)
		return true
	}, func(c *cell.Cell) { r.NotifyForwarded(r.Expected()) })
	for i := 0; i < 3; i++ {
		r.HandleDataBatched(uint64(i), mkCell(i))
	}
	if len(ctrl) != 0 {
		t.Fatalf("%d segments escaped before Flush", len(ctrl))
	}
	r.Flush()
	if len(ctrl) != 2 {
		t.Fatalf("Flush sent %d segments, want feedback + ack", len(ctrl))
	}
	if ctrl[0].Kind != KindFeedback || ctrl[0].Count != 3 {
		t.Errorf("first flushed segment = %+v, want cumulative feedback 3", ctrl[0])
	}
	if ctrl[1].Kind != KindAck || ctrl[1].Count != 3 {
		t.Errorf("second flushed segment = %+v, want cumulative ack 3", ctrl[1])
	}
}

func TestBatchedReorderAcksCumulatively(t *testing.T) {
	// Out-of-order arrivals within a train reorder exactly as the
	// per-cell path does; the single flushed ack carries the contiguous
	// prefix after the whole train was processed.
	r, delivered, ctrl := collectReceiver(t)
	r.HandleDataBatched(2, mkCell(2))
	r.HandleDataBatched(0, mkCell(0))
	r.HandleDataBatched(1, mkCell(1))
	r.HandleDataBatched(4, mkCell(4)) // gap: 3 missing
	r.Flush()
	if len(*delivered) != 3 {
		t.Fatalf("delivered %d, want the in-order prefix of 3", len(*delivered))
	}
	for i, c := range *delivered {
		if int(c.Payload[0]) != i {
			t.Errorf("delivered[%d] = cell %d", i, c.Payload[0])
		}
	}
	if len(*ctrl) != 1 || (*ctrl)[0].Count != 3 {
		t.Fatalf("flushed %v, want one ack with count 3", *ctrl)
	}
	if len(r.buffer) != 1 {
		t.Errorf("%d cells parked, want 1 (seq 4)", len(r.buffer))
	}
}

func TestNotifyForwardedOutsideBatchSendsImmediately(t *testing.T) {
	// Deferral is scoped to the batched handler call: a forwarding
	// report arriving between trains (an onward link draining later)
	// signals upstream immediately, exactly like the per-cell path.
	r, _, ctrl := collectReceiver(t)
	r.HandleDataBatched(0, mkCell(0))
	r.Flush()
	n := len(*ctrl)
	r.NotifyForwarded(1)
	if len(*ctrl) != n+1 {
		t.Fatalf("NotifyForwarded after Flush sent %d segments, want 1", len(*ctrl)-n)
	}
	if seg := (*ctrl)[n]; seg.Kind != KindFeedback || seg.Count != 1 {
		t.Errorf("segment = %+v, want immediate feedback 1", seg)
	}
}

func TestBatchedCloseMidBatchDropsPendingSignals(t *testing.T) {
	// Teardown can fire from inside the delivery chain. Pending deferred
	// signals die with the receiver: Flush on a closed receiver sends
	// nothing, and further batched arrivals report not-first.
	var ctrl []Segment
	var r *Receiver
	r = NewReceiver(9, func(seg Segment) bool {
		ctrl = append(ctrl, seg)
		return true
	}, func(c *cell.Cell) { r.Close() })
	if first := r.HandleDataBatched(0, mkCell(0)); first {
		t.Error("delivery chain closed the receiver: no ack should be owed")
	}
	r.Flush()
	if len(ctrl) != 0 {
		t.Fatalf("closed receiver flushed %d segments", len(ctrl))
	}
}

func TestBatchedAndPerCellPathsDeliverIdentically(t *testing.T) {
	// The two handler paths must deliver the same cells in the same
	// order and end with the same cumulative state — only the signal
	// timing differs (per cell vs per train).
	run := func(batched bool) ([]int, uint64, int) {
		r, delivered, ctrl := collectReceiver(t)
		seqs := []uint64{1, 0, 3, 2, 4}
		for _, s := range seqs {
			if batched {
				r.HandleDataBatched(s, mkCell(int(s)))
			} else {
				r.HandleData(s, mkCell(int(s)))
			}
		}
		if batched {
			r.Flush()
		}
		var got []int
		for _, c := range *delivered {
			got = append(got, int(c.Payload[0]))
		}
		acks := 0
		for _, seg := range *ctrl {
			if seg.Kind == KindAck {
				acks++
			}
		}
		return got, r.Expected(), acks
	}
	bGot, bExp, bAcks := run(true)
	pGot, pExp, pAcks := run(false)
	if len(bGot) != len(pGot) {
		t.Fatalf("batched delivered %d, per-cell %d", len(bGot), len(pGot))
	}
	for i := range bGot {
		if bGot[i] != pGot[i] {
			t.Fatalf("delivery %d: batched cell %d vs per-cell %d", i, bGot[i], pGot[i])
		}
	}
	if bExp != pExp {
		t.Errorf("Expected() %d vs %d", bExp, pExp)
	}
	if bAcks != 1 {
		t.Errorf("batched path sent %d acks, want 1", bAcks)
	}
	if pAcks != 5 {
		t.Errorf("per-cell path sent %d acks, want 5", pAcks)
	}
}

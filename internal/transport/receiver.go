package transport

import (
	"fmt"

	"circuitstart/internal/cell"
)

// Receiver is the per-hop receive side: it acknowledges reception,
// reorders, delivers cells in order to its consumer, and reports
// *forwarding* progress back to the sender as FEEDBACK.
//
// Who calls NotifyForwarded distinguishes node roles: a relay wires it
// to its own onward sender's first-transmission hook ("the cell is
// moving"), while a sink calls it immediately upon delivery (delivering
// to the application is the final forwarding step).
type Receiver struct {
	circ cell.CircID
	// send transmits control segments back toward the sender.
	send func(Segment) bool
	// deliver consumes in-order cells.
	deliver func(*cell.Cell)

	expected uint64 // next in-order sequence
	// buffer parks out-of-order cells. It is made when the first one
	// arrives: most hops never reorder, and a nil map reads as empty.
	buffer map[uint64]*cell.Cell

	forwarded    uint64 // highest forwarding count reported to us
	feedbackSent uint64 // highest count actually signalled upstream

	// Batched delivery (cell trains) processes every data segment in
	// the train first and flushes one cumulative ACK — and at most one
	// cumulative FEEDBACK — covering the whole run, instead of one per
	// cell. Both signals are cumulative counts, so the coalesced pair
	// carries exactly the information the per-cell segments would have.
	// deferSignals is set for the duration of a batched handler call so
	// nested NotifyForwarded calls (the delivery chain forwards the
	// cell onward synchronously) park their report in fbDue instead of
	// sending; ackDue/fbDue persist until Flush.
	deferSignals bool
	ackDue       bool
	fbDue        bool

	closed bool
}

// NewReceiver creates a hop receiver. send transmits ACK/FEEDBACK
// segments to the predecessor; deliver consumes in-order cells.
func NewReceiver(circ cell.CircID, send func(Segment) bool, deliver func(*cell.Cell)) *Receiver {
	if send == nil {
		panic("transport: NewReceiver with nil send")
	}
	if deliver == nil {
		panic("transport: NewReceiver with nil deliver")
	}
	return &Receiver{
		circ:    circ,
		send:    send,
		deliver: deliver,
	}
}

// Expected returns the next in-order sequence number (equivalently, the
// cumulative count of in-order cells received).
func (r *Receiver) Expected() uint64 { return r.expected }

// Close shuts the receiver down as part of a circuit teardown: the
// reorder buffer is dropped (its cells may alias the upstream sender's
// retransmission state, so they are abandoned to the collector rather
// than recycled — see DESIGN.md, "Teardown ownership") and every
// subsequent handler call is a no-op.
func (r *Receiver) Close() {
	if r.closed {
		return
	}
	r.closed = true
	r.buffer = nil
}

// HandleData processes an arriving DATA segment: acknowledge, reorder,
// deliver. Nested forwarding reports fire per cell, as they always
// have — this is the byte-identical unbatched path.
func (r *Receiver) HandleData(seq uint64, c *cell.Cell) {
	if !r.handleData(seq, c) {
		return
	}
	r.send(Segment{Kind: KindAck, Circ: r.circ, Count: r.expected})
}

// HandleDataBatched is HandleData with all upstream signalling deferred
// to the train boundary: reorder and deliver now; the ack — and any
// forwarding report the synchronous delivery chain produces — go out in
// Flush. It reports whether this call newly put an ack on the books
// (the first deferral since the last flush), so a batch loop can record
// the receiver for flushing exactly once.
func (r *Receiver) HandleDataBatched(seq uint64, c *cell.Cell) bool {
	r.deferSignals = true
	ok := r.handleData(seq, c)
	r.deferSignals = false
	if !ok {
		return false
	}
	first := !r.ackDue
	r.ackDue = true
	return first
}

// handleData is the shared reorder/deliver body. It reports whether the
// arrival should be acknowledged (false = receiver closed, possibly by
// the delivery chain itself mid-call).
func (r *Receiver) handleData(seq uint64, c *cell.Cell) bool {
	if c == nil {
		panic("transport: HandleData with nil cell")
	}
	if r.closed {
		return false
	}
	switch {
	case seq < r.expected:
		// A retransmission of something delivered; re-ack below.
	case seq == r.expected:
		r.deliverCell(c)
		// Drain any contiguous run parked in the buffer.
		for {
			nxt, ok := r.buffer[r.expected]
			if !ok {
				break
			}
			delete(r.buffer, r.expected)
			r.deliverCell(nxt)
		}
	default: // out of order
		if _, dup := r.buffer[seq]; !dup {
			if r.buffer == nil {
				r.buffer = make(map[uint64]*cell.Cell)
			}
			r.buffer[seq] = c
		}
	}
	return !r.closed
}

// Flush sends the signals a batched delivery deferred: the cumulative
// forwarding report first, then the cumulative acknowledgment — the
// same relative order the per-cell path produces. Delivery may have
// closed the receiver mid-batch (teardown), in which case the pending
// signals are dropped with the rest of its state.
func (r *Receiver) Flush() {
	if r.closed {
		return
	}
	if r.fbDue {
		r.fbDue = false
		if r.forwarded > r.feedbackSent {
			r.feedbackSent = r.forwarded
			r.send(Segment{Kind: KindFeedback, Circ: r.circ, Count: r.forwarded})
		}
	}
	if r.ackDue {
		r.ackDue = false
		r.send(Segment{Kind: KindAck, Circ: r.circ, Count: r.expected})
	}
}

func (r *Receiver) deliverCell(c *cell.Cell) {
	r.expected++
	r.deliver(c)
}

// HandleProbe answers a window probe by re-sending the current
// cumulative reception and forwarding reports. Probes heal lost tail
// ACK/FEEDBACK segments, which are otherwise never retransmitted.
func (r *Receiver) HandleProbe() {
	if r.closed {
		return
	}
	r.send(Segment{Kind: KindAck, Circ: r.circ, Count: r.expected})
	if r.forwarded > 0 {
		r.send(Segment{Kind: KindFeedback, Circ: r.circ, Count: r.forwarded})
	}
}

// NotifyForwarded reports that the node has forwarded count cells of
// this hop onward (cumulative). New progress is signalled upstream as a
// FEEDBACK segment.
func (r *Receiver) NotifyForwarded(count uint64) {
	if r.closed {
		return
	}
	if count > r.expected {
		panic(fmt.Sprintf("transport: forwarded %d cells but only %d delivered", count, r.expected))
	}
	if count <= r.forwarded {
		return
	}
	r.forwarded = count
	if r.deferSignals {
		r.fbDue = true // parked; Flush sends one cumulative report
		return
	}
	if count > r.feedbackSent {
		r.feedbackSent = count
		r.send(Segment{Kind: KindFeedback, Circ: r.circ, Count: count})
	}
}

// Package transport implements the per-hop, window-based transport
// protocol the paper assumes ("a custom, window-based transport protocol
// that allows low-latency communication between neighboring relays"),
// re-creating BackTap (Tschorsch & Scheuermann, NSDI'16) as the base
// protocol and CircuitStart as its start-up scheme.
//
// Each hop of a circuit runs an independent (Sender, Receiver) pair:
//
//	source ── hop0 ──> relay1 ── hop1 ──> relay2 ── ... ──> sink
//
// Three message kinds cross a hop:
//
//   - DATA carries one fixed-size cell with a sequence number.
//   - ACK acknowledges in-order *reception* (reliability, and the clock
//     of a traditional slow start).
//   - FEEDBACK reports cumulative cells *forwarded onward* by the
//     receiver — the paper's "cells are moving" signal. CircuitStart
//     clocks its rounds on FEEDBACK, and Vegas-style queue estimation
//     uses the DATA→FEEDBACK round-trip.
//
// The distinction between ACK and FEEDBACK is the paper's first design
// point: "an increase of the cwnd is not triggered by the reception of
// an ACK, but by feedback messages indicating that the cell has been
// forwarded by the successor relay."
package transport

import (
	"fmt"

	"circuitstart/internal/cell"
	"circuitstart/internal/units"
)

// Kind discriminates hop segments.
type Kind uint8

// Segment kinds.
const (
	KindData Kind = iota + 1
	KindAck
	KindFeedback
	// KindProbe requests a fresh ACK + FEEDBACK report. Senders emit it
	// when all data has been received but feedback is outstanding for
	// longer than an RTO — the cumulative FEEDBACK stream is not
	// retransmitted, so a lost tail report would otherwise stall the
	// window forever (the transport's analogue of TCP's persist timer).
	KindProbe
)

func (k Kind) String() string {
	switch k {
	case KindData:
		return "DATA"
	case KindAck:
		return "ACK"
	case KindFeedback:
		return "FEEDBACK"
	case KindProbe:
		return "PROBE"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Wire sizes. DATA segments carry a full cell plus the hop header;
// control segments are small. These sizes are charged by the network
// emulator, so control traffic consumes (reverse-path) bandwidth.
const (
	// headerSize covers kind, circuit ID, sequence/count and framing.
	headerSize = 16
	// DataWireSize is the on-wire size of a DATA segment.
	DataWireSize = units.DataSize(cell.Size + headerSize)
	// CtrlWireSize is the on-wire size of ACK and FEEDBACK segments.
	CtrlWireSize = units.DataSize(24)
)

// Dir distinguishes the two data directions of a circuit: Forward runs
// source → sink (onion layers are peeled hop by hop), Backward runs
// sink → source (layers are added hop by hop, the client unwraps). Each
// direction is an independent transport instance per hop; the zero
// value is Forward so unidirectional deployments never mention it.
type Dir uint8

// Directions.
const (
	DirForward Dir = iota
	DirBackward
)

func (d Dir) String() string {
	if d == DirBackward {
		return "back"
	}
	return "fwd"
}

// Segment is one hop-transport message.
//
// Sequence semantics: DATA carries Seq = the 0-based index of the cell
// on this hop. ACK and FEEDBACK carry Count = the *cumulative number* of
// cells received in order (ACK) or forwarded onward (FEEDBACK); i.e. a
// count of n covers sequence numbers 0..n-1.
type Segment struct {
	Kind  Kind
	Dir   Dir
	Circ  cell.CircID
	Seq   uint64     // DATA only
	Count uint64     // ACK / FEEDBACK only
	Cell  *cell.Cell // DATA only
}

// WireSize returns the size the network charges for this segment.
// Test-only: endpoint's TestSinkBadCellCounted frames segments with it.
func (s Segment) WireSize() units.DataSize {
	if s.Kind == KindData {
		return DataWireSize
	}
	return CtrlWireSize
}

func (s Segment) String() string {
	switch s.Kind {
	case KindData:
		return fmt.Sprintf("DATA{%v circ=%d seq=%d}", s.Dir, s.Circ, s.Seq)
	default:
		return fmt.Sprintf("%v{%v circ=%d count=%d}", s.Kind, s.Dir, s.Circ, s.Count)
	}
}

// Package cell implements the fixed-size cell format the overlay
// exchanges, modelled on Tor's link-protocol cells: a 4-byte circuit ID,
// a 1-byte command, and a fixed payload, for a constant 512-byte wire
// unit. Relay cells carry an additional sub-header (command, recognized,
// stream ID, digest, length) inside the payload, exactly as in Tor; the
// digest and recognized fields are what let a relay decide whether a
// multiply-encrypted cell has fully "peeled" at its position.
//
// Fixed-size cells are load-bearing for the paper: congestion windows
// are counted in cells, and the network emulator charges every cell the
// same serialization time.
package cell

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Wire format constants.
const (
	// Size is the fixed wire size of every cell.
	Size = 512
	// HeaderSize is CircID (4) + Command (1).
	HeaderSize = 5
	// PayloadSize is the fixed payload length of every cell.
	PayloadSize = Size - HeaderSize // 507
	// RelayHeaderSize is the relay sub-header inside the payload:
	// relay command (1) + recognized (2) + stream ID (2) + digest (4) +
	// length (2).
	RelayHeaderSize = 11
	// MaxRelayData is the usable data bytes in one relay cell.
	MaxRelayData = PayloadSize - RelayHeaderSize // 496
)

// CircID identifies a circuit on one hop. As in Tor, IDs are per-link,
// chosen by the side that initiated the connection.
type CircID uint32

// Command is the top-level cell command.
type Command uint8

// Top-level commands (a subset of Tor's, sufficient for circuit
// construction, data relaying and teardown).
const (
	CmdPadding Command = 0
	CmdCreate  Command = 1
	CmdCreated Command = 2
	CmdRelay   Command = 3
	CmdDestroy Command = 4
)

func (c Command) String() string {
	switch c {
	case CmdPadding:
		return "PADDING"
	case CmdCreate:
		return "CREATE"
	case CmdCreated:
		return "CREATED"
	case CmdRelay:
		return "RELAY"
	case CmdDestroy:
		return "DESTROY"
	default:
		return fmt.Sprintf("Command(%d)", uint8(c))
	}
}

// RelayCommand is the command of a relay sub-header.
type RelayCommand uint8

// Relay commands.
const (
	RelayData      RelayCommand = 1
	RelayBegin     RelayCommand = 2
	RelayConnected RelayCommand = 3
	RelayEnd       RelayCommand = 4
	RelayExtend    RelayCommand = 5
	RelayExtended  RelayCommand = 6
	RelaySendme    RelayCommand = 7
)

func (c RelayCommand) String() string {
	switch c {
	case RelayData:
		return "RELAY_DATA"
	case RelayBegin:
		return "RELAY_BEGIN"
	case RelayConnected:
		return "RELAY_CONNECTED"
	case RelayEnd:
		return "RELAY_END"
	case RelayExtend:
		return "RELAY_EXTEND"
	case RelayExtended:
		return "RELAY_EXTENDED"
	case RelaySendme:
		return "RELAY_SENDME"
	default:
		return fmt.Sprintf("RelayCommand(%d)", uint8(c))
	}
}

// Cell is one fixed-size overlay cell.
type Cell struct {
	Circ    CircID
	Cmd     Command
	Payload [PayloadSize]byte
}

// Errors returned by decoding.
var (
	ErrShortBuffer  = errors.New("cell: buffer shorter than cell size")
	ErrBadRelayLen  = errors.New("cell: relay length field exceeds payload")
	ErrDataTooLarge = errors.New("cell: relay data exceeds MaxRelayData")
)

// Marshal encodes the cell into exactly Size bytes. The simulator never
// serializes a cell, so the wire codec (Marshal, MarshalTo, Unmarshal)
// is test-only: on ROADMAP item 17's deletion queue.
func (c *Cell) Marshal() []byte {
	buf := make([]byte, Size)
	c.MarshalTo(buf)
	return buf
}

// MarshalTo encodes the cell into buf, which must hold at least Size
// bytes. It returns the number of bytes written (always Size).
// Test-only, like Marshal.
func (c *Cell) MarshalTo(buf []byte) int {
	if len(buf) < Size {
		panic("cell: MarshalTo buffer too small")
	}
	binary.BigEndian.PutUint32(buf[0:4], uint32(c.Circ))
	buf[4] = byte(c.Cmd)
	copy(buf[HeaderSize:Size], c.Payload[:])
	return Size
}

// Unmarshal decodes a cell from buf, which must hold at least Size
// bytes. Test-only, like Marshal.
func Unmarshal(buf []byte) (*Cell, error) {
	if len(buf) < Size {
		return nil, ErrShortBuffer
	}
	c := &Cell{
		Circ: CircID(binary.BigEndian.Uint32(buf[0:4])),
		Cmd:  Command(buf[4]),
	}
	copy(c.Payload[:], buf[HeaderSize:Size])
	return c, nil
}

// RelayHeader is the sub-header of a RELAY cell, stored at the start of
// the payload.
type RelayHeader struct {
	Cmd RelayCommand
	// Recognized is zero in plaintext; after a relay removes its
	// encryption layer, a zero value (together with a matching digest)
	// means the cell has fully decrypted at this hop.
	Recognized uint16
	StreamID   uint16
	// Digest authenticates the relay payload under the hop's running
	// digest (see package onion).
	Digest [4]byte
	// Length is the number of meaningful data bytes following the header.
	Length uint16
}

// SetRelay writes hdr and data into the cell's payload and sets the
// command to CmdRelay. Bytes after the data are zeroed (fixed-size cells
// must not leak previous contents).
func (c *Cell) SetRelay(hdr RelayHeader, data []byte) error {
	if len(data) > MaxRelayData {
		return ErrDataTooLarge
	}
	hdr.Length = uint16(len(data))
	c.Cmd = CmdRelay
	p := c.Payload[:]
	p[0] = byte(hdr.Cmd)
	binary.BigEndian.PutUint16(p[1:3], hdr.Recognized)
	binary.BigEndian.PutUint16(p[3:5], hdr.StreamID)
	copy(p[5:9], hdr.Digest[:])
	binary.BigEndian.PutUint16(p[9:11], hdr.Length)
	n := copy(p[RelayHeaderSize:], data)
	for i := RelayHeaderSize + n; i < PayloadSize; i++ {
		p[i] = 0
	}
	return nil
}

// Relay parses the relay sub-header and returns it with the data slice
// it frames. The returned data aliases the cell's payload.
func (c *Cell) Relay() (RelayHeader, []byte, error) {
	p := c.Payload[:]
	hdr := RelayHeader{
		Cmd:        RelayCommand(p[0]),
		Recognized: binary.BigEndian.Uint16(p[1:3]),
		StreamID:   binary.BigEndian.Uint16(p[3:5]),
		Length:     binary.BigEndian.Uint16(p[9:11]),
	}
	copy(hdr.Digest[:], p[5:9])
	if int(hdr.Length) > MaxRelayData {
		return RelayHeader{}, nil, ErrBadRelayLen
	}
	return hdr, p[RelayHeaderSize : RelayHeaderSize+int(hdr.Length)], nil
}

// ZeroDigest clears the digest field in the payload in place. The
// running-digest construction computes the digest over the payload with
// this field zeroed.
func (c *Cell) ZeroDigest() {
	for i := 5; i < 9; i++ {
		c.Payload[i] = 0
	}
}

// SetDigest stores d into the digest field of the payload.
func (c *Cell) SetDigest(d [4]byte) { copy(c.Payload[5:9], d[:]) }

// PayloadDigestField returns the current digest field bytes.
func (c *Cell) PayloadDigestField() (d [4]byte) {
	copy(d[:], c.Payload[5:9])
	return d
}

func (c *Cell) String() string {
	return fmt.Sprintf("cell{circ=%d cmd=%v}", c.Circ, c.Cmd)
}

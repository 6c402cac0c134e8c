// Package endpoint implements the two ends of a data circuit: the
// Source, which packetizes a transfer into onion-encrypted cells and
// runs the first transport hop, and the Sink, which consumes plaintext
// cells at the far end and reports forwarding progress immediately
// (delivering to the application is the final "forwarding" step, so the
// sink's feedback is generated on in-order delivery).
//
// Both ends packetize on demand: Send and SendBackward only record the
// bytes submitted, and the hop sender asks for each cell at the instant
// its window lets the cell leave (transport.Config.Produce). A transfer
// therefore costs the cells it transmits, not the cells it was offered,
// and an origin never holds a cell it has not sent.
package endpoint

import (
	"fmt"

	"circuitstart/internal/cell"
	"circuitstart/internal/netem"
	"circuitstart/internal/onion"
	"circuitstart/internal/pool"
	"circuitstart/internal/sim"
	"circuitstart/internal/transport"
	"circuitstart/internal/units"
)

// Source is the data origin of a circuit. In the paper's terminology it
// is "the source" whose congestion window Figure 1 traces; for a Tor
// download it corresponds to the sending edge of the circuit.
type Source struct {
	id     netem.NodeID
	clock  *sim.Clock
	port   *netem.Port
	circ   cell.CircID
	crypto *onion.CircuitCrypto
	sender *transport.Sender
	first  netem.NodeID

	cells *pool.Objects[cell.Cell] // optional recycling with the far endpoint
	segs  transport.SegmentPool
	pack  packetizer

	// Download (backward) direction: the client receives layered cells
	// from the first relay and unwraps every hop's encryption.
	drecv        *transport.Receiver
	downloaded   units.DataSize
	downBad      uint64
	downExpected units.DataSize
	onDownload   func(at sim.Time)
	downDone     bool

	closed bool
}

// NewSource attaches a source node to the fabric. params is the
// transport template (Clock/Circ/Send are filled in here); first is the
// circuit's first relay.
func NewSource(id netem.NodeID, fab netem.Fabric, access netem.AccessConfig,
	circ cell.CircID, crypto *onion.CircuitCrypto, first netem.NodeID,
	params transport.Config, rng *sim.RNG) *Source {

	s := &Source{id: id, clock: fab.Clock(), circ: circ, crypto: crypto, first: first}
	s.port = fab.Attach(id, access, s, rng)

	params.Clock = s.clock
	params.Circ = circ
	params.Send = func(seg transport.Segment) bool {
		seg.Dir = transport.DirForward
		return s.segs.Send(s.port, first, seg)
	}
	params.Produce = s.produce
	s.sender = transport.NewSender(params)

	s.drecv = transport.NewReceiver(circ,
		func(seg transport.Segment) bool {
			seg.Dir = transport.DirBackward
			return s.segs.Send(s.port, first, seg)
		},
		s.consumeDownload,
	)
	return s
}

// UseSegmentPool wires the shared segment-wrapper pool (see
// core.Network), which also stores the forward sender's buffers. Must
// be set before traffic flows.
func (s *Source) UseSegmentPool(sp *transport.SegmentPool) {
	s.segs = *sp
	s.sender.UseSegmentPool(sp)
}

// UseCellPool wires cell recycling: the packetizer draws its cells from
// cells, and every consumed download cell is returned to it. Wire the
// same store into both endpoints of a circuit (core does) so the cells
// the far end consumes feed this end's packetizer, mid-transfer.
func (s *Source) UseCellPool(cells *pool.Objects[cell.Cell]) { s.cells = cells }

// ExpectDownload arms the download completion callback: once size
// application bytes have arrived over the backward direction,
// onComplete fires with the arrival time of the last byte.
func (s *Source) ExpectDownload(size units.DataSize, onComplete func(at sim.Time)) {
	// Cumulative target, like Sink.Expect: downloaded never resets, so a
	// second download on the same circuit waits for size NEW bytes.
	s.downExpected = s.downloaded + size
	s.onDownload = onComplete
	s.downDone = false
}

// Downloaded returns the backward-direction application bytes received.
func (s *Source) Downloaded() units.DataSize { return s.downloaded }

// DownloadBadCells returns backward cells that failed to unwrap.
// Test-only: the core and workload download tests assert it is zero;
// it goes with onion crypto (ROADMAP item 17).
func (s *Source) DownloadBadCells() uint64 { return s.downBad }

// consumeDownload processes one in-order backward cell: unwrap every
// onion layer, account the data, and report the cell forwarded
// (delivery to the application is the final step).
func (s *Source) consumeDownload(c *cell.Cell) {
	if _, err := s.crypto.UnwrapBackward(c); err != nil {
		s.downBad++
	} else if hdr, data, err := c.Relay(); err == nil && hdr.Cmd == cell.RelayData {
		s.downloaded += units.DataSize(len(data))
	} else {
		s.downBad++
	}
	s.drecv.NotifyForwarded(s.drecv.Expected())
	s.cells.Put(c)
	if !s.downDone && s.downExpected > 0 && s.downloaded >= s.downExpected && s.onDownload != nil {
		s.downDone = true
		s.onDownload(s.clock.Now())
	}
}

// Close releases the source's circuit state on teardown: the forward
// sender's timers stop (their events return to the clock's free list),
// the unsent remainder of a transfer is dropped (it was never built, so
// there is nothing to recycle), the download receiver shuts down, and
// frames still in flight from the fabric are dropped silently. The port
// stays attached; a rebuilt circuit uses fresh node IDs.
func (s *Source) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.onDownload = nil
	s.sender.Close()
	s.drecv.Close()
}

// Closed reports whether the source has been torn down. Test-only:
// core's TestTeardownMidTransferReleasesState checks it.
func (s *Source) Closed() bool { return s.closed }

// Sender exposes the source's hop sender — the subject of the paper's
// cwnd traces.
func (s *Source) Sender() *transport.Sender { return s.sender }

// Send submits size bytes of application data: relay DATA cells of up to
// cell.MaxRelayData bytes each, onion-encrypted, built one at a time as
// the transport transmits them. It returns the number of cells the
// transfer occupies.
func (s *Source) Send(size units.DataSize) int {
	if size <= 0 {
		panic(fmt.Sprintf("endpoint: Send(%v)", size))
	}
	if s.closed {
		panic("endpoint: Send on a closed source")
	}
	cells := s.pack.submit(size)
	s.sender.Offer(cells)
	return cells
}

// produce builds the next forward cell (transport.Config.Produce).
func (s *Source) produce() *cell.Cell {
	c := s.pack.next(s.cells, s.circ)
	s.crypto.WrapForward(c)
	return c
}

// CellsFor returns how many cells a transfer of the given size occupies.
func CellsFor(size units.DataSize) int {
	per := int64(cell.MaxRelayData)
	return int((size.Bytes() + per - 1) / per)
}

// packetizer is the unsent remainder of an origin's submitted transfers.
// Transfers stay separate — each one's last cell is short rather than
// topped up from the next — so the cell sequence is the one packetizing
// every transfer in full at submission would give.
type packetizer struct {
	left []int64 // unsent bytes per submitted transfer, oldest at head
	head int
}

// zeroData is the application data every transfer carries.
var zeroData [cell.MaxRelayData]byte

// submit records a transfer and returns how many cells it occupies.
func (p *packetizer) submit(size units.DataSize) int {
	if p.head == len(p.left) {
		p.left, p.head = p.left[:0], 0
	}
	p.left = append(p.left, size.Bytes())
	return CellsFor(size)
}

// next builds the oldest unsent cell as a plaintext relay DATA cell.
func (p *packetizer) next(cells *pool.Objects[cell.Cell], circ cell.CircID) *cell.Cell {
	n := min(p.left[p.head], int64(cell.MaxRelayData))
	if p.left[p.head] -= n; p.left[p.head] == 0 {
		p.head++
	}
	c := cells.Get()
	c.Circ = circ
	if err := c.SetRelay(cell.RelayHeader{Cmd: cell.RelayData, StreamID: 1}, zeroData[:n]); err != nil {
		panic(err) // n <= MaxRelayData by construction
	}
	return c
}

// Deliver handles a segment arriving from the first relay: control for
// the forward sender, data for the download receiver (netem.Handler).
func (s *Source) Deliver(f *netem.Frame) {
	s.deliver(f)
}

// DeliverTrain handles a whole cell train in one call
// (netem batch delivery): backward data segments defer their per-cell
// acks and forwarding reports, and one cumulative FEEDBACK+ACK pair
// covering the train is flushed at the end.
func (s *Source) DeliverTrain(fs []*netem.Frame) {
	for _, f := range fs {
		s.deliverBatched(f)
	}
	if s.drecv != nil {
		s.drecv.Flush()
	}
}

// deliverBatched is deliver with data handed to the batched receiver
// path (signals deferred to the train boundary).
func (s *Source) deliverBatched(f *netem.Frame) {
	if s.closed {
		return
	}
	seg, ok := f.Payload.(*transport.Segment)
	if !ok || f.Src != s.first {
		panic(fmt.Sprintf("source %s: unexpected frame from %s", s.id, f.Src))
	}
	if seg.Dir == transport.DirBackward && seg.Kind == transport.KindData {
		s.drecv.HandleDataBatched(seg.Seq, seg.Cell)
		return
	}
	s.deliverSeg(seg)
}

func (s *Source) deliver(f *netem.Frame) {
	if s.closed {
		return // circuit torn down; absorb in-flight frames
	}
	seg, ok := f.Payload.(*transport.Segment)
	if !ok || f.Src != s.first {
		panic(fmt.Sprintf("source %s: unexpected frame from %s", s.id, f.Src))
	}
	if seg.Dir == transport.DirBackward && seg.Kind == transport.KindData {
		s.drecv.HandleData(seg.Seq, seg.Cell)
		return
	}
	s.deliverSeg(seg)
}

// deliverSeg routes the non-data segment kinds (shared by the per-frame
// and batched paths).
func (s *Source) deliverSeg(seg *transport.Segment) {
	if seg.Dir == transport.DirBackward {
		switch seg.Kind {
		case transport.KindProbe:
			s.drecv.HandleProbe()
		default:
			panic(fmt.Sprintf("source %s: unexpected backward segment %v", s.id, seg))
		}
		return
	}
	switch seg.Kind {
	case transport.KindAck:
		s.sender.HandleAck(seg.Count)
	case transport.KindFeedback:
		s.sender.HandleFeedback(seg.Count)
	default:
		panic(fmt.Sprintf("source %s: unexpected segment %v", s.id, seg))
	}
}

// Sink is the destination endpoint: it receives plaintext cells from
// the exit relay, counts application bytes, and completes a transfer.
type Sink struct {
	id    netem.NodeID
	clock *sim.Clock
	port  *netem.Port
	circ  cell.CircID
	exit  netem.NodeID
	recv  *transport.Receiver

	received units.DataSize
	badCells uint64

	// Expected, when positive, arms OnComplete.
	expected   units.DataSize
	onComplete func(at sim.Time)
	completed  bool

	// bsender originates backward (download-direction) data: the sink
	// is the destination server, outside the onion, so it sends
	// plaintext relay cells; the exit relay seals and encrypts them.
	bsender *transport.Sender

	cellPool *pool.Objects[cell.Cell] // optional recycling with the far endpoint
	segs     transport.SegmentPool
	pack     packetizer

	closed bool
}

// NewSink attaches a sink node to the fabric, receiving from exit.
// params configures the backward (server → client) sender; the zero
// value selects the transport defaults.
func NewSink(id netem.NodeID, fab netem.Fabric, access netem.AccessConfig,
	circ cell.CircID, exit netem.NodeID, params transport.Config, rng *sim.RNG) *Sink {

	k := &Sink{id: id, clock: fab.Clock(), circ: circ, exit: exit}
	k.port = fab.Attach(id, access, k, rng)
	k.recv = transport.NewReceiver(circ,
		func(seg transport.Segment) bool {
			seg.Dir = transport.DirForward
			return k.segs.Send(k.port, exit, seg)
		},
		k.consume,
	)

	params.Clock = k.clock
	params.Circ = circ
	params.Send = func(seg transport.Segment) bool {
		seg.Dir = transport.DirBackward
		return k.segs.Send(k.port, exit, seg)
	}
	params.Produce = k.produce
	k.bsender = transport.NewSender(params)
	return k
}

// UseSegmentPool wires the shared segment-wrapper pool (see
// core.Network), which also stores the backward sender's buffers. Must
// be set before traffic flows.
func (k *Sink) UseSegmentPool(sp *transport.SegmentPool) {
	k.segs = *sp
	k.bsender.UseSegmentPool(sp)
}

// BackwardSender exposes the sink's server-side sender (the subject of
// download-direction window traces).
func (k *Sink) BackwardSender() *transport.Sender { return k.bsender }

// UseCellPool wires cell recycling: consumed upload cells are returned
// to cells and the backward packetizer draws its cells from it.
func (k *Sink) UseCellPool(cells *pool.Objects[cell.Cell]) { k.cellPool = cells }

// SendBackward submits size bytes of server data toward the client over
// the backward direction: plaintext relay DATA cells, built one at a
// time as the transport transmits them. It returns the number of cells
// the transfer occupies.
func (k *Sink) SendBackward(size units.DataSize) int {
	if size <= 0 {
		panic(fmt.Sprintf("endpoint: SendBackward(%v)", size))
	}
	if k.closed {
		panic("endpoint: SendBackward on a closed sink")
	}
	cells := k.pack.submit(size)
	k.bsender.Offer(cells)
	return cells
}

// produce builds the next backward cell (transport.Config.Produce):
// plaintext, since the exit relay seals and encrypts.
func (k *Sink) produce() *cell.Cell { return k.pack.next(k.cellPool, k.circ) }

// Close releases the sink's circuit state on teardown: the backward
// sender's timers stop, the unsent remainder of a download is dropped,
// the forward receiver shuts down, and frames still in flight from the
// fabric are dropped silently.
func (k *Sink) Close() {
	if k.closed {
		return
	}
	k.closed = true
	k.onComplete = nil
	k.bsender.Close()
	k.recv.Close()
}

// Closed reports whether the sink has been torn down. Test-only:
// core's TestTeardownMidTransferReleasesState checks it.
func (k *Sink) Closed() bool { return k.closed }

// Expect arms the completion callback: once size application bytes have
// arrived, onComplete fires with the arrival time of the last byte.
func (k *Sink) Expect(size units.DataSize, onComplete func(at sim.Time)) {
	// The target is cumulative — received never resets — so arming a new
	// expectation on a circuit that already completed a transfer waits
	// for size NEW bytes rather than completing on the first cell.
	k.expected = k.received + size
	k.onComplete = onComplete
	k.completed = false
}

// Received returns the application bytes delivered so far.
func (k *Sink) Received() units.DataSize { return k.received }

// BadCells returns cells that failed to parse as plaintext relay cells.
// Test-only: the core and workload tests assert it is zero; it goes
// with onion crypto (ROADMAP item 17).
func (k *Sink) BadCells() uint64 { return k.badCells }

// consume processes one in-order plaintext cell: account its data and
// immediately report it forwarded (the delivery IS the forwarding).
func (k *Sink) consume(c *cell.Cell) {
	hdr, data, err := c.Relay()
	if err != nil || hdr.Cmd != cell.RelayData {
		k.badCells++
	} else {
		k.received += units.DataSize(len(data))
	}
	k.recv.NotifyForwarded(k.recv.Expected())
	k.cellPool.Put(c)
	if !k.completed && k.expected > 0 && k.received >= k.expected && k.onComplete != nil {
		k.completed = true
		k.onComplete(k.clock.Now())
	}
}

// Deliver handles one frame from the exit relay: forward data to the
// receiver, backward control to the server-side sender (netem.Handler).
func (k *Sink) Deliver(f *netem.Frame) {
	k.deliver(f)
}

// DeliverTrain handles a whole cell train in one call
// (netem batch delivery): forward data segments defer their per-cell acks
// and forwarding reports, and one cumulative FEEDBACK+ACK pair covering
// the train is flushed at the end.
func (k *Sink) DeliverTrain(fs []*netem.Frame) {
	for _, f := range fs {
		k.deliverBatched(f)
	}
	if k.recv != nil {
		k.recv.Flush()
	}
}

// deliverBatched is deliver with data handed to the batched receiver
// path (signals deferred to the train boundary).
func (k *Sink) deliverBatched(f *netem.Frame) {
	if k.closed {
		return
	}
	seg, ok := f.Payload.(*transport.Segment)
	if !ok || f.Src != k.exit {
		panic(fmt.Sprintf("sink %s: unexpected frame from %s", k.id, f.Src))
	}
	if seg.Dir == transport.DirForward && seg.Kind == transport.KindData {
		k.recv.HandleDataBatched(seg.Seq, seg.Cell)
		return
	}
	k.deliverSeg(seg)
}

func (k *Sink) deliver(f *netem.Frame) {
	if k.closed {
		return // circuit torn down; absorb in-flight frames
	}
	seg, ok := f.Payload.(*transport.Segment)
	if !ok || f.Src != k.exit {
		panic(fmt.Sprintf("sink %s: unexpected frame from %s", k.id, f.Src))
	}
	if seg.Dir == transport.DirForward && seg.Kind == transport.KindData {
		k.recv.HandleData(seg.Seq, seg.Cell)
		return
	}
	k.deliverSeg(seg)
}

// deliverSeg routes the non-data segment kinds (shared by the per-frame
// and batched paths).
func (k *Sink) deliverSeg(seg *transport.Segment) {
	if seg.Dir == transport.DirBackward {
		switch seg.Kind {
		case transport.KindAck:
			k.bsender.HandleAck(seg.Count)
		case transport.KindFeedback:
			k.bsender.HandleFeedback(seg.Count)
		default:
			panic(fmt.Sprintf("sink %s: unexpected backward segment %v", k.id, seg))
		}
		return
	}
	switch seg.Kind {
	case transport.KindProbe:
		k.recv.HandleProbe()
	default:
		panic(fmt.Sprintf("sink %s: unexpected segment %v", k.id, seg))
	}
}

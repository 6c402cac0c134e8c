package relay

import (
	"testing"
	"time"

	"circuitstart/internal/cell"
	"circuitstart/internal/netem"
	"circuitstart/internal/onion"
	"circuitstart/internal/sim"
	"circuitstart/internal/transport"
	"circuitstart/internal/units"
)

// testRig wires source node → relay → sink node over a star, driving
// the relay through raw transport segments so relay behaviour can be
// asserted in isolation.
type testRig struct {
	clock *sim.Clock
	star  *netem.StarFabric
	relay *Relay

	srcGot   []transport.Segment // control arriving back at the source node
	sinkGot  []transport.Segment // segments arriving at the sink node
	sinkRecv *transport.Receiver // live receiver at the sink

	keys *onion.HopKeys // relay-side keys
	ck   *onion.HopKeys // client-side keys
}

func newTestRig(t *testing.T) *testRig {
	t.Helper()
	clock := sim.NewClock()
	star := netem.NewStarFabric(clock)
	rig := &testRig{clock: clock, star: star}

	access := netem.Symmetric(units.Mbps(50), time.Millisecond, 0)
	rig.relay = New("relay", star, access, nil)

	star.Attach("src", access, netem.HandlerFunc(func(f *netem.Frame) {
		rig.srcGot = append(rig.srcGot, *f.Payload.(*transport.Segment))
	}), nil)
	// The sink records raw segments for assertions but also behaves as
	// a live hop receiver — otherwise the relay's onward window (2
	// cells initially) stalls after two cells.
	sinkPort := star.Attach("sink", access, netem.HandlerFunc(func(f *netem.Frame) {
		seg := *f.Payload.(*transport.Segment)
		rig.sinkGot = append(rig.sinkGot, seg)
		switch seg.Kind {
		case transport.KindData:
			rig.sinkRecv.HandleData(seg.Seq, seg.Cell)
		case transport.KindProbe:
			rig.sinkRecv.HandleProbe()
		}
	}), nil)
	rig.sinkRecv = transport.NewReceiver(7, func(seg transport.Segment) bool {
		return sinkPort.Send("relay", seg.WireSize(), &seg)
	}, func(*cell.Cell) {
		rig.sinkRecv.NotifyForwarded(rig.sinkRecv.Expected())
	})

	ident, err := onion.NewIdentity(fixedRand{})
	if err != nil {
		t.Fatal(err)
	}
	ck, create, err := onion.ClientHandshake(fixedRand{}, ident.Public())
	if err != nil {
		t.Fatal(err)
	}
	rk, err := ident.RelayHandshake(create)
	if err != nil {
		t.Fatal(err)
	}
	rig.ck, rig.keys = ck, rk
	return rig
}

// fixedRand is a deterministic io.Reader for key generation in tests.
type fixedRand struct{}

func (fixedRand) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(i*37 + 11)
	}
	return len(p), nil
}

// dataCell builds a cell encrypted for the rig's single hop.
func (r *testRig) dataCell(payloadByte byte) *cell.Cell {
	c := &cell.Cell{Circ: 7}
	if err := c.SetRelay(cell.RelayHeader{Cmd: cell.RelayData, StreamID: 1}, []byte{payloadByte}); err != nil {
		panic(err)
	}
	r.ck.SealForward(c)
	r.ck.EncryptForward(c)
	return c
}

func (r *testRig) addHop(t *testing.T) {
	t.Helper()
	r.relay.AddForwardHop(7, "src", "sink", r.keys, transport.Config{})
}

func (r *testRig) sendData(seq uint64, c *cell.Cell) {
	port := r.star.Port("src")
	seg := transport.Segment{Kind: transport.KindData, Circ: 7, Seq: seq, Cell: c}
	port.Send("relay", seg.WireSize(), &seg)
}

func (r *testRig) run() { r.clock.RunUntil(r.clock.Now() + 10*sim.Second) }

func TestRelayForwardsAndDecrypts(t *testing.T) {
	rig := newTestRig(t)
	rig.addHop(t)

	for i := 0; i < 3; i++ {
		rig.sendData(uint64(i), rig.dataCell(byte('a'+i)))
	}
	rig.run()

	// The sink node here never acknowledges, so the relay's reliability
	// layer retransmits — count unique sequences.
	datas := map[uint64]*cell.Cell{}
	for _, s := range rig.sinkGot {
		if s.Kind == transport.KindData {
			datas[s.Seq] = s.Cell
		}
	}
	if len(datas) != 3 {
		t.Fatalf("sink got %d distinct data segments, want 3", len(datas))
	}
	// The relay was the only onion layer, so the sink sees plaintext
	// relay cells with verified digests.
	for seq, c := range datas {
		hdr, data, err := c.Relay()
		if err != nil || hdr.Cmd != cell.RelayData {
			t.Fatalf("seq %d not a plaintext relay cell: %v", seq, err)
		}
		if len(data) != 1 || data[0] != byte('a'+int(seq)) {
			t.Fatalf("seq %d payload %q", seq, data)
		}
	}
	st := rig.relay.Stats()
	if st.CellsForwarded != 3 || st.Recognized != 3 {
		t.Fatalf("stats %+v", st)
	}
}

func TestRelayEmitsAckAndFeedback(t *testing.T) {
	rig := newTestRig(t)
	rig.addHop(t)
	rig.sendData(0, rig.dataCell('x'))
	rig.run()

	var acks, feedbacks int
	for _, s := range rig.srcGot {
		switch s.Kind {
		case transport.KindAck:
			acks++
			if s.Count != 1 {
				t.Errorf("ACK count %d", s.Count)
			}
		case transport.KindFeedback:
			feedbacks++
			if s.Count != 1 {
				t.Errorf("FEEDBACK count %d", s.Count)
			}
		}
	}
	if acks == 0 {
		t.Error("no ACK reached the predecessor")
	}
	if feedbacks == 0 {
		t.Error("no FEEDBACK reached the predecessor — the 'cells are moving' signal is missing")
	}
}

func TestRelayFeedbackFollowsForwarding(t *testing.T) {
	// Feedback must be emitted when the relay *transmits onward*, not
	// when it receives: with a sender that cannot transmit (successor
	// window full is hard to fake, so use out-of-order data that parks
	// in the receive buffer), no feedback may be sent.
	rig := newTestRig(t)
	rig.addHop(t)
	// Send seq 1 first: it buffers (expected = 0), is never delivered,
	// and must therefore produce an ACK of 0 and no feedback.
	rig.sendData(1, rig.dataCell('b'))
	rig.run()

	for _, s := range rig.srcGot {
		if s.Kind == transport.KindFeedback {
			t.Fatalf("feedback %d for undelivered cell", s.Count)
		}
		if s.Kind == transport.KindAck && s.Count != 0 {
			t.Fatalf("ACK %d for out-of-order cell", s.Count)
		}
	}
	for _, s := range rig.sinkGot {
		if s.Kind == transport.KindData {
			t.Fatal("out-of-order cell was forwarded")
		}
	}
}

func TestRelayDropsUnknownCircuit(t *testing.T) {
	rig := newTestRig(t)
	rig.addHop(t)
	port := rig.star.Port("src")
	seg := transport.Segment{Kind: transport.KindData, Circ: 99, Seq: 0, Cell: rig.dataCell('z')}
	port.Send("relay", seg.WireSize(), &seg)
	rig.run()
	if got := rig.relay.Stats().UnknownCircuit; got != 1 {
		t.Fatalf("UnknownCircuit = %d", got)
	}
	if len(rig.sinkGot) != 0 {
		t.Fatal("segment for unknown circuit was forwarded")
	}
}

func TestRelayIgnoresStrangerFrames(t *testing.T) {
	rig := newTestRig(t)
	rig.addHop(t)
	// A third node sends a segment on circuit 7: neither pred nor succ.
	rig.star.Attach("stranger", netem.Symmetric(units.Mbps(10), time.Millisecond, 0),
		netem.HandlerFunc(func(*netem.Frame) {}), nil)
	seg := transport.Segment{Kind: transport.KindAck, Circ: 7, Count: 5}
	rig.star.Port("stranger").Send("relay", seg.WireSize(), &seg)
	rig.run()
	if got := rig.relay.Stats().UnknownSource; got != 1 {
		t.Fatalf("UnknownSource = %d", got)
	}
}

// badDigestCell returns a first-on-the-hop cell that decrypts at the
// rig's relay to a header with Recognized == 0 and a known command but
// a digest that does not verify: the plaintext is sealed, a data byte
// is flipped, and only then is the stream layer applied. It must be
// the first cell on the hop so the CTR keystreams stay aligned. plain
// is what removing the relay's layer must yield.
func (r *testRig) badDigestCell(t *testing.T) (c *cell.Cell, plain cell.Cell) {
	t.Helper()
	c = &cell.Cell{Circ: 7}
	if err := c.SetRelay(cell.RelayHeader{Cmd: cell.RelayData, StreamID: 1}, []byte{'x'}); err != nil {
		t.Fatal(err)
	}
	r.ck.SealForward(c)
	c.Payload[cell.Size-100] ^= 0xff
	plain = *c
	r.ck.EncryptForward(c)
	return c, plain
}

func (r *testRig) sinkDataCells() []*cell.Cell {
	var out []*cell.Cell
	for _, s := range r.sinkGot {
		if s.Kind == transport.KindData {
			out = append(out, s.Cell)
		}
	}
	return out
}

// At the exit, where the payload is plaintext, a recognized-looking
// header with a wrong digest is corruption: dropped, not forwarded.
func TestRelayCorruptCellDropped(t *testing.T) {
	rig := newTestRig(t)
	rig.relay.AddHop(7, "src", "sink", rig.keys, transport.Config{}, true)

	c, _ := rig.badDigestCell(t)
	rig.sendData(0, c)
	rig.run()
	if st := rig.relay.Stats(); st.Corrupt != 1 {
		t.Fatalf("Corrupt = %d, want 1", st.Corrupt)
	}
	if len(rig.sinkDataCells()) != 0 {
		t.Fatal("corrupt cell was forwarded")
	}
}

// At a middle hop the same bytes are still ciphertext that merely
// parses as a recognized header — rare, but bulk traffic meets it: the
// relay cannot judge it and must forward it untouched.
// Dropping it loses a cell the hop transport has already acknowledged,
// and the transfer stalls for good.
func TestRelayMiddleHopForwardsUnverifiedCell(t *testing.T) {
	rig := newTestRig(t)
	rig.relay.AddHop(7, "src", "sink", rig.keys, transport.Config{}, false)

	c, want := rig.badDigestCell(t)
	rig.sendData(0, c)
	rig.run()
	st := rig.relay.Stats()
	if st.Corrupt != 0 || st.Recognized != 0 || st.CellsForwarded != 1 {
		t.Fatalf("Corrupt = %d, Recognized = %d, CellsForwarded = %d, want 0, 0, 1",
			st.Corrupt, st.Recognized, st.CellsForwarded)
	}
	got := rig.sinkDataCells()
	if len(got) != 1 {
		t.Fatalf("%d cells reached the successor, want 1", len(got))
	}
	if got[0].Payload != want.Payload {
		t.Fatal("forwarded cell is not the received cell minus exactly one layer")
	}
}

func TestRelayDuplicateHopPanics(t *testing.T) {
	rig := newTestRig(t)
	rig.addHop(t)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate AddForwardHop did not panic")
		}
	}()
	rig.relay.AddForwardHop(7, "src", "sink", rig.keys, transport.Config{})
}

func TestRelayHopAccessors(t *testing.T) {
	rig := newTestRig(t)
	rig.addHop(t)
	if rig.relay.HopSender(7) == nil || rig.relay.HopReceiver(7) == nil {
		t.Fatal("hop accessors returned nil for existing circuit")
	}
	if rig.relay.HopSender(8) != nil || rig.relay.HopReceiver(8) != nil {
		t.Fatal("hop accessors returned non-nil for missing circuit")
	}
	if rig.relay.ID() != "relay" {
		t.Fatalf("ID = %q", rig.relay.ID())
	}
	if rig.relay.Port() == nil {
		t.Fatal("nil port")
	}
}

func TestRelayProbeAnswered(t *testing.T) {
	rig := newTestRig(t)
	rig.addHop(t)
	rig.sendData(0, rig.dataCell('x'))
	rig.run()
	before := len(rig.srcGot)
	seg := transport.Segment{Kind: transport.KindProbe, Circ: 7}
	rig.star.Port("src").Send("relay", seg.WireSize(), &seg)
	rig.run()
	var ack, fb bool
	for _, s := range rig.srcGot[before:] {
		if s.Kind == transport.KindAck {
			ack = true
		}
		if s.Kind == transport.KindFeedback {
			fb = true
		}
	}
	if !ack || !fb {
		t.Fatalf("probe answered ack=%v fb=%v", ack, fb)
	}
}

// backCell builds a plaintext backward cell (as the destination server
// would send it to the exit relay).
func backCell(payload byte) *cell.Cell {
	c := &cell.Cell{Circ: 7}
	if err := c.SetRelay(cell.RelayHeader{Cmd: cell.RelayData, StreamID: 1}, []byte{payload}); err != nil {
		panic(err)
	}
	return c
}

func (r *testRig) sendBackwardData(seq uint64, c *cell.Cell) {
	port := r.star.Port("sink")
	seg := transport.Segment{Kind: transport.KindData, Dir: transport.DirBackward, Circ: 7, Seq: seq, Cell: c}
	port.Send("relay", seg.WireSize(), &seg)
}

func TestRelayBackwardExitSealsAndEncrypts(t *testing.T) {
	rig := newTestRig(t)
	// Register the hop as the exit: backward plaintext from the sink
	// must be sealed and encrypted before leaving toward the source.
	rig.relay.AddHop(7, "src", "sink", rig.keys, transport.Config{}, true)

	rig.sendBackwardData(0, backCell('q'))
	rig.clock.RunUntil(5 * sim.Second)

	var got *cell.Cell
	for _, s := range rig.srcGot {
		if s.Kind == transport.KindData && s.Dir == transport.DirBackward {
			got = s.Cell
			break
		}
	}
	if got == nil {
		t.Fatal("no backward cell reached the predecessor")
	}
	// The cell on the wire must be ciphertext; one backward decryption
	// with the client-side keys must reveal a sealed, verifiable cell.
	rig.ck.DecryptBackward(got)
	hdr, data, err := got.Relay()
	if err != nil || hdr.Recognized != 0 {
		t.Fatalf("backward cell not recognized after one layer: %v", err)
	}
	if !rig.ck.VerifyBackward(got) {
		t.Fatal("backward digest invalid — exit did not seal")
	}
	if len(data) != 1 || data[0] != 'q' {
		t.Fatalf("payload %q", data)
	}
	if rig.relay.BackwardHopSender(7) == nil {
		t.Fatal("nil BackwardHopSender")
	}
}

func TestRelayBackwardMiddleOnlyEncrypts(t *testing.T) {
	rig := newTestRig(t)
	// Non-exit hop: backward cells gain a layer but are NOT sealed here
	// (the digest belongs to the exit). Feed it an already-sealed cell
	// as if it came from the exit's side.
	rig.relay.AddHop(7, "src", "sink", rig.keys, transport.Config{}, false)

	c := backCell('m')
	rig.sendBackwardData(0, c)
	rig.clock.RunUntil(5 * sim.Second)

	var got *cell.Cell
	for _, s := range rig.srcGot {
		if s.Kind == transport.KindData && s.Dir == transport.DirBackward {
			got = s.Cell
			break
		}
	}
	if got == nil {
		t.Fatal("no backward cell reached the predecessor")
	}
	rig.ck.DecryptBackward(got)
	hdr, data, err := got.Relay()
	if err != nil || hdr.Recognized != 0 {
		t.Fatalf("backward cell not readable after one layer: %v", err)
	}
	// A middle relay does not seal: the digest field is whatever the
	// plaintext carried (zero here), so VerifyBackward fails.
	if rig.ck.VerifyBackward(got) {
		t.Fatal("middle relay sealed the cell — only the exit may")
	}
	if len(data) != 1 || data[0] != 'm' {
		t.Fatalf("payload %q", data)
	}
}

func TestRelayBackwardControlDemux(t *testing.T) {
	rig := newTestRig(t)
	rig.relay.AddHop(7, "src", "sink", rig.keys, transport.Config{}, true)
	rig.sendBackwardData(0, backCell('x'))
	rig.clock.RunUntil(5 * sim.Second)

	// Backward ACK from the predecessor must reach the backward sender.
	bs := rig.relay.BackwardHopSender(7)
	sentBefore := bs.Stats().Transmitted
	if sentBefore == 0 {
		t.Fatal("backward sender transmitted nothing")
	}
	seg := transport.Segment{Kind: transport.KindAck, Dir: transport.DirBackward, Circ: 7, Count: sentBefore}
	rig.star.Port("src").Send("relay", seg.WireSize(), &seg)
	rig.clock.RunUntil(rig.clock.Now() + sim.Second)
	if bs.Stats().Acked != sentBefore {
		t.Fatalf("backward sender acked=%d, want %d", bs.Stats().Acked, sentBefore)
	}
}

package endpoint

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

// fixedRand is a deterministic but non-repeating randomness source:
// every Read yields fresh bytes so distinct identities derive distinct
// keys (a constant reader would make all onion layers cancel out).
type fixedRand struct{ ctr byte }

func (r *fixedRand) Read(p []byte) (int, error) {
	for i := range p {
		r.ctr += 101
		p[i] = r.ctr ^ byte(i)
	}
	return len(p), nil
}

// testCircuit builds a circuit's client-side and relay-side keys. The
// randomness is a fixed stream, so every call with the same hop count
// returns the same keys in fresh cipher state.
func testCircuit(t *testing.T, hops int) (*onion.CircuitCrypto, []*onion.HopKeys) {
	t.Helper()
	rnd := &fixedRand{}
	idents := make([]*onion.Identity, hops)
	for i := range idents {
		id, err := onion.NewIdentity(rnd)
		if err != nil {
			t.Fatal(err)
		}
		idents[i] = id
	}
	ck, rk, err := onion.BuildCircuit(rnd, idents)
	if err != nil {
		t.Fatal(err)
	}
	return ck, rk
}

// sourceRig attaches a Source and a fake first-relay node that records
// everything and acknowledges data like a well-behaved hop receiver.
type sourceRig struct {
	clock  *sim.Clock
	star   *netem.GraphFabric
	source *Source
	crypto *onion.CircuitCrypto
	rk     []*onion.HopKeys

	recv *transport.Receiver
	got  []*cell.Cell
}

func newSourceRig(t *testing.T, hops int) *sourceRig {
	t.Helper()
	rig := &sourceRig{clock: sim.NewClock()}
	rig.star = netem.NewStarFabric(rig.clock)
	access := netem.Symmetric(units.Mbps(50), time.Millisecond, 0)

	rig.crypto, rig.rk = testCircuit(t, hops)

	var relayPort *netem.Port
	relayPort = rig.star.Attach("first", access, netem.HandlerFunc(func(f *netem.Frame) {
		seg := *f.Payload.(*transport.Segment)
		switch seg.Kind {
		case transport.KindData:
			rig.recv.HandleData(seg.Seq, seg.Cell)
		case transport.KindProbe:
			rig.recv.HandleProbe()
		}
	}), nil)
	rig.recv = transport.NewReceiver(1, func(seg transport.Segment) bool {
		return relayPort.Send("client", seg.WireSize(), &seg)
	}, func(c *cell.Cell) {
		rig.got = append(rig.got, c)
		rig.recv.NotifyForwarded(rig.recv.Expected())
	})

	rig.source = NewSource("client", rig.star, access, 1, rig.crypto, "first", transport.Config{}, nil)
	return rig
}

func TestSourcePacketization(t *testing.T) {
	rig := newSourceRig(t, 1)
	// 1000 bytes over 496-byte relay payloads = 3 cells.
	n := rig.source.Send(1000 * units.Byte)
	if n != 3 {
		t.Fatalf("Send packetized %d cells", n)
	}
	if CellsFor(1000*units.Byte) != 3 {
		t.Fatalf("CellsFor = %d", CellsFor(1000*units.Byte))
	}
	rig.clock.RunUntil(5 * sim.Second)
	if len(rig.got) != 3 {
		t.Fatalf("relay received %d cells", len(rig.got))
	}
	// Each received cell must decrypt at the first (only) hop.
	var total int
	for i, c := range rig.got {
		rig.rk[0].DecryptForward(c)
		hdr, data, err := c.Relay()
		if err != nil || hdr.Recognized != 0 {
			t.Fatalf("cell %d not recognized after one layer: %v", i, err)
		}
		if !rig.rk[0].VerifyForward(c) {
			t.Fatalf("cell %d digest invalid", i)
		}
		total += len(data)
	}
	if total != 1000 {
		t.Fatalf("payload bytes %d, want 1000", total)
	}
}

func TestSourceLayeredEncryption(t *testing.T) {
	rig := newSourceRig(t, 3)
	rig.source.Send(496 * units.Byte)
	rig.clock.RunUntil(5 * sim.Second)
	if len(rig.got) != 1 {
		t.Fatalf("relay received %d cells", len(rig.got))
	}
	c := rig.got[0]
	// One layer: still unrecognizable.
	rig.rk[0].DecryptForward(c)
	if hdr, _, err := c.Relay(); err == nil && hdr.Recognized == 0 && rig.rk[0].VerifyForward(c) {
		t.Fatal("cell recognized after only one of three layers")
	}
	// Remaining layers reveal the plaintext.
	rig.rk[1].DecryptForward(c)
	rig.rk[2].DecryptForward(c)
	hdr, data, err := c.Relay()
	if err != nil || hdr.Recognized != 0 || !rig.rk[2].VerifyForward(c) {
		t.Fatalf("cell not recognized after all layers: %v", err)
	}
	if len(data) != 496 {
		t.Fatalf("payload %d bytes", len(data))
	}
}

func TestSourceSendPanicsOnZero(t *testing.T) {
	rig := newSourceRig(t, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	rig.source.Send(0)
}

func TestSourceAccessors(t *testing.T) {
	rig := newSourceRig(t, 1)
	if rig.source.Sender() == nil {
		t.Fatal("nil accessors")
	}
}

// sinkRig attaches a Sink and a fake exit node.
type sinkRig struct {
	clock *sim.Clock
	star  *netem.GraphFabric
	sink  *Sink
	exit  *netem.Port

	ctrl []transport.Segment // control segments arriving at the exit
	recv *transport.Receiver // when set, takes the sink's backward data (see ackBackward)
}

func newSinkRig(t *testing.T) *sinkRig {
	t.Helper()
	rig := &sinkRig{clock: sim.NewClock()}
	rig.star = netem.NewStarFabric(rig.clock)
	access := netem.Symmetric(units.Mbps(50), time.Millisecond, 0)
	rig.exit = rig.star.Attach("exit", access, netem.HandlerFunc(func(f *netem.Frame) {
		seg := *f.Payload.(*transport.Segment)
		rig.ctrl = append(rig.ctrl, seg)
		if rig.recv == nil {
			return
		}
		switch seg.Kind {
		case transport.KindData:
			rig.recv.HandleData(seg.Seq, seg.Cell)
		case transport.KindProbe:
			rig.recv.HandleProbe()
		}
	}), nil)
	rig.sink = NewSink("server", rig.star, access, 1, "exit", transport.Config{}, nil)
	return rig
}

func (r *sinkRig) sendPlain(seq uint64, payload []byte) {
	c := &cell.Cell{Circ: 1}
	if err := c.SetRelay(cell.RelayHeader{Cmd: cell.RelayData, StreamID: 1}, payload); err != nil {
		panic(err)
	}
	seg := transport.Segment{Kind: transport.KindData, Circ: 1, Seq: seq, Cell: c}
	r.exit.Send("server", seg.WireSize(), &seg)
}

func TestSinkCountsAndCompletes(t *testing.T) {
	rig := newSinkRig(t)
	var doneAt sim.Time
	rig.sink.Expect(992*units.Byte, func(at sim.Time) { doneAt = at })

	rig.sendPlain(0, make([]byte, 496))
	rig.sendPlain(1, make([]byte, 496))
	rig.clock.RunUntil(5 * sim.Second)

	if rig.sink.Received() != 992 {
		t.Fatalf("Received = %v", rig.sink.Received())
	}
	if doneAt == 0 {
		t.Fatal("completion callback never fired")
	}
	// The sink must have acked and fed back both cells ("delivering to
	// the application is the final forwarding step").
	var maxAck, maxFb uint64
	for _, s := range rig.ctrl {
		switch s.Kind {
		case transport.KindAck:
			if s.Count > maxAck {
				maxAck = s.Count
			}
		case transport.KindFeedback:
			if s.Count > maxFb {
				maxFb = s.Count
			}
		}
	}
	if maxAck != 2 || maxFb != 2 {
		t.Fatalf("ack=%d feedback=%d, want 2/2", maxAck, maxFb)
	}
}

func TestSinkCompletionFiresOnce(t *testing.T) {
	rig := newSinkRig(t)
	fired := 0
	rig.sink.Expect(498*units.Byte, func(sim.Time) { fired++ })
	rig.sendPlain(0, make([]byte, 496))
	rig.sendPlain(1, make([]byte, 496)) // beyond the expectation
	rig.clock.RunUntil(5 * sim.Second)
	if fired != 1 {
		t.Fatalf("completion fired %d times", fired)
	}
}

func TestSinkBadCellCounted(t *testing.T) {
	rig := newSinkRig(t)
	// A garbage cell (no valid relay header) counts as bad, not as data.
	c := &cell.Cell{Circ: 1}
	for i := range c.Payload {
		c.Payload[i] = 0xAA
	}
	seg := transport.Segment{Kind: transport.KindData, Circ: 1, Seq: 0, Cell: c}
	rig.exit.Send("server", seg.WireSize(), &seg)
	rig.clock.RunUntil(sim.Second)
	if rig.sink.BadCells() != 1 {
		t.Fatalf("BadCells = %d", rig.sink.BadCells())
	}
	if rig.sink.Received() != 0 {
		t.Fatalf("Received = %v for garbage", rig.sink.Received())
	}
}

func TestSinkID(t *testing.T) {
	rig := newSinkRig(t)
	if rig.sink.ID() != "server" {
		t.Fatalf("ID = %q", rig.sink.ID())
	}
}

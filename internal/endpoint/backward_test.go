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

// backRig wires a Source (client) to a fake first-relay node that
// behaves as the client's backward peer: it receives the client's
// backward control, and originates already-onion-encrypted backward
// cells like the real relay chain would.
type backRig struct {
	clock  *sim.Clock
	star   *netem.GraphFabric
	source *Source
	rk     []*onion.HopKeys // relay-side keys, guard first
	relay  *netem.Port

	ctrl []transport.Segment // backward control from the client
}

func newBackRig(t *testing.T, hops int) *backRig {
	t.Helper()
	rig := &backRig{clock: sim.NewClock()}
	rig.star = netem.NewStarFabric(rig.clock)
	access := netem.Symmetric(units.Mbps(50), time.Millisecond, 0)

	ck, rk := testCircuit(t, hops)
	rig.rk = rk

	rig.relay = rig.star.Attach("first", access, netem.HandlerFunc(func(f *netem.Frame) {
		seg := *f.Payload.(*transport.Segment)
		if seg.Dir == transport.DirBackward {
			rig.ctrl = append(rig.ctrl, seg)
		}
	}), nil)
	rig.source = NewSource("client", rig.star, access, 1, ck, "first", transport.Config{}, nil)
	return rig
}

// sendBackward originates one backward cell as the relay chain would:
// the exit (last hop) seals, every hop encrypts, innermost (exit) first.
func (r *backRig) sendBackward(seq uint64, payload []byte) {
	c := &cell.Cell{Circ: 1}
	if err := c.SetRelay(cell.RelayHeader{Cmd: cell.RelayData, StreamID: 1}, payload); err != nil {
		panic(err)
	}
	exit := r.rk[len(r.rk)-1]
	exit.SealBackward(c)
	for i := len(r.rk) - 1; i >= 0; i-- {
		r.rk[i].EncryptBackward(c)
	}
	seg := transport.Segment{Kind: transport.KindData, Dir: transport.DirBackward, Circ: 1, Seq: seq, Cell: c}
	r.relay.Send("client", seg.WireSize(), &seg)
}

func TestSourceDownloadUnwrapsAllLayers(t *testing.T) {
	rig := newBackRig(t, 3)
	var doneAt sim.Time
	rig.source.ExpectDownload(992*units.Byte, func(at sim.Time) { doneAt = at })

	rig.sendBackward(0, make([]byte, 496))
	rig.sendBackward(1, make([]byte, 496))
	rig.clock.RunUntil(5 * sim.Second)

	if rig.source.Downloaded() != 992 {
		t.Fatalf("Downloaded = %v, want 992", rig.source.Downloaded())
	}
	if rig.source.DownloadBadCells() != 0 {
		t.Fatalf("%d bad cells", rig.source.DownloadBadCells())
	}
	if doneAt == 0 {
		t.Fatal("download completion never fired")
	}
	// The client must acknowledge and feed back over the backward
	// direction (delivery is the final forwarding step).
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
		t.Fatalf("backward ack=%d feedback=%d, want 2/2", maxAck, maxFb)
	}
}

func TestSourceDownloadCountsBadCells(t *testing.T) {
	rig := newBackRig(t, 2)
	// A backward cell with garbage encryption never becomes recognized
	// at the client and counts as bad.
	c := &cell.Cell{Circ: 1}
	for i := range c.Payload {
		c.Payload[i] = 0x5c
	}
	seg := transport.Segment{Kind: transport.KindData, Dir: transport.DirBackward, Circ: 1, Seq: 0, Cell: c}
	rig.relay.Send("client", seg.WireSize(), &seg)
	rig.clock.RunUntil(sim.Second)
	if rig.source.DownloadBadCells() != 1 {
		t.Fatalf("DownloadBadCells = %d", rig.source.DownloadBadCells())
	}
	if rig.source.Downloaded() != 0 {
		t.Fatalf("Downloaded = %v for garbage", rig.source.Downloaded())
	}
}

func TestSinkSendBackwardPacketizes(t *testing.T) {
	clock := sim.NewClock()
	star := netem.NewStarFabric(clock)
	access := netem.Symmetric(units.Mbps(50), time.Millisecond, 0)

	var datas []transport.Segment
	exit := star.Attach("exit", access, netem.HandlerFunc(func(f *netem.Frame) {
		seg := *f.Payload.(*transport.Segment)
		if seg.Kind == transport.KindData && seg.Dir == transport.DirBackward {
			datas = append(datas, seg)
		}
	}), nil)
	_ = exit
	k := NewSink("server", star, access, 1, "exit", transport.Config{}, nil)

	if n := k.SendBackward(1000 * units.Byte); n != 3 {
		t.Fatalf("SendBackward packetized %d cells", n)
	}
	clock.RunUntil(sim.Second)
	// Initial window is 2 cells; at least those must be on the wire as
	// plaintext relay cells (the exit seals, not the server).
	if len(datas) < 2 {
		t.Fatalf("exit received %d backward cells", len(datas))
	}
	hdr, _, err := datas[0].Cell.Relay()
	if err != nil || hdr.Cmd != cell.RelayData || hdr.Recognized != 0 {
		t.Fatalf("backward cell not plaintext: %v %+v", err, hdr)
	}
	if k.BackwardSender() == nil {
		t.Fatal("nil BackwardSender")
	}
}

func TestSinkSendBackwardPanicsOnZero(t *testing.T) {
	clock := sim.NewClock()
	star := netem.NewStarFabric(clock)
	access := netem.Symmetric(units.Mbps(50), time.Millisecond, 0)
	star.Attach("exit", access, netem.HandlerFunc(func(*netem.Frame) {}), nil)
	k := NewSink("server", star, access, 1, "exit", transport.Config{}, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	k.SendBackward(0)
}

package endpoint

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"circuitstart/internal/cell"
	"circuitstart/internal/onion"
	"circuitstart/internal/sim"
	"circuitstart/internal/transport"
	"circuitstart/internal/units"
)

// submission is one Send (or SendBackward) call of a generated sequence.
type submission struct {
	at   time.Duration
	size units.DataSize
}

// eagerCells is the reference packetizer: every cell of every transfer
// built in full at once, in submission order, each transfer's last cell
// short. wrap, when non-nil, onion-encrypts each cell as the source does.
func eagerCells(subs []submission, wrap *onion.CircuitCrypto) []*cell.Cell {
	var out []*cell.Cell
	zero := make([]byte, cell.MaxRelayData)
	for _, sub := range subs {
		for remaining := sub.size.Bytes(); remaining > 0; {
			n := min(remaining, int64(cell.MaxRelayData))
			remaining -= n
			c := &cell.Cell{Circ: 1}
			if err := c.SetRelay(cell.RelayHeader{Cmd: cell.RelayData, StreamID: 1}, zero[:n]); err != nil {
				panic(err)
			}
			if wrap != nil {
				wrap.WrapForward(c)
			}
			out = append(out, c)
		}
	}
	return out
}

// backloggedCase names the sequence whose later submissions must find
// the sender still holding unsent backlog.
const backloggedCase = "while backlogged"

// packetizeCases are the hand-picked sequences plus seeded random ones.
// Submissions a few milliseconds apart land while the earlier transfer
// is still backlogged behind the two-cell initial window.
func packetizeCases() map[string][]submission {
	const m = units.DataSize(cell.MaxRelayData)
	cases := map[string][]submission{
		"one byte":      {{0, 1}},
		"one short":     {{0, m - 1}},
		"exactly one":   {{0, m}},
		"one over":      {{0, m + 1}},
		"k cells":       {{0, 37 * m}},
		"back to back":  {{0, 3*m + 5}, {0, 2*m - 1}, {0, 1}},
		backloggedCase:  {{0, 120*m + 7}, {6 * time.Millisecond, 40*m + 1}, {9 * time.Millisecond, m}},
		"after a drain": {{0, 2 * m}, {400 * time.Millisecond, 5*m + 3}},
	}
	sizes := []units.DataSize{1, m - 1, m, m + 1, 16 * m, 64*m + 1}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var subs []submission
		var at time.Duration
		for i := 1 + rng.Intn(4); i > 0; i-- {
			size := sizes[rng.Intn(len(sizes))]
			if rng.Intn(3) == 0 {
				size = units.DataSize(1 + rng.Int63n(int64(80*m)))
			}
			subs = append(subs, submission{at, size})
			at += time.Duration(rng.Intn(12)) * time.Millisecond
		}
		cases[fmt.Sprintf("seed %d", seed)] = subs
	}
	return cases
}

// checkPacketized runs a sequence through send on clock and compares the
// cells captured at the first hop with the eager reference. With
// mustBacklog, some submission has to find the sender backlogged.
func checkPacketized(t *testing.T, mustBacklog bool, clock *sim.Clock, subs []submission, send func(units.DataSize) int,
	queueLen func() int, got *[]*cell.Cell, want []*cell.Cell) {
	t.Helper()
	backlogged := false
	for _, sub := range subs {
		sub := sub
		clock.At(sim.Time(sub.at), func() {
			if queueLen() > 0 {
				backlogged = true
			}
			if n := send(sub.size); n != CellsFor(sub.size) {
				t.Errorf("submitting %v returned %d cells, want CellsFor = %d", sub.size, n, CellsFor(sub.size))
			}
		})
	}
	clock.RunUntil(30 * sim.Second)
	if queueLen() != 0 {
		t.Fatalf("%d cells still queued at the horizon", queueLen())
	}
	if len(*got) != len(want) {
		t.Fatalf("first hop received %d cells, the eager reference has %d", len(*got), len(want))
	}
	for i, c := range *got {
		if *c != *want[i] {
			t.Fatalf("cell %d of %d differs from the eager reference", i, len(want))
		}
	}
	if mustBacklog && !backlogged {
		t.Fatal("no submission found the sender backlogged; the case does not test what it names")
	}
}

// TestPacketizerMatchesEagerReference: building each cell when the hop
// sender transmits it yields, byte for byte and in order, the cells that
// packetizing (and onion-wrapping) whole transfers at submission would.
// The reference wraps on a twin CircuitCrypto built from the same keys,
// so any reordering of the CTR streams or running digests shows.
func TestPacketizerMatchesEagerReference(t *testing.T) {
	for name, subs := range packetizeCases() {
		name, subs := name, subs
		t.Run("forward/"+name, func(t *testing.T) {
			rig := newSourceRig(t, 3)
			twin, _ := testCircuit(t, 3)
			checkPacketized(t, name == backloggedCase, rig.clock, subs, rig.source.Send, rig.source.Sender().QueueLen,
				&rig.got, eagerCells(subs, twin))
		})
		t.Run("backward/"+name, func(t *testing.T) {
			rig := newSinkRig(t)
			got := rig.ackBackward()
			checkPacketized(t, name == backloggedCase, rig.clock, subs, rig.sink.SendBackward, rig.sink.BackwardSender().QueueLen,
				got, eagerCells(subs, nil))
		})
	}
}

// ackBackward turns the rig's exit into a well-behaved hop receiver for
// the sink's backward data and returns the cells it takes delivery of.
func (r *sinkRig) ackBackward() *[]*cell.Cell {
	got := new([]*cell.Cell)
	r.recv = transport.NewReceiver(1, func(seg transport.Segment) bool {
		seg.Dir = transport.DirBackward
		return r.exit.Send("server", seg.WireSize(), &seg)
	}, func(c *cell.Cell) {
		*got = append(*got, c)
		r.recv.NotifyForwarded(r.recv.Expected())
	})
	return got
}

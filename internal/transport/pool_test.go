package transport

import (
	"testing"
	"time"

	"circuitstart/internal/cell"
	"circuitstart/internal/pool"
	"circuitstart/internal/sim"
)

// fixedWindowSender is a sender with a pinned 64-cell window and no
// network: Send records data segments into sent (nil = count only),
// and its buffers come from pool (nil = plain allocation).
func fixedWindowSender(clock *sim.Clock, pool *SegmentPool, sent *[]Segment, n *uint64) *Sender {
	s := NewSender(Config{
		Clock: clock, Circ: 1,
		Startup: noStartup{}, DisableAvoidance: true,
		InitialCwnd: 64,
		Send: func(seg Segment) bool {
			if seg.Kind == KindData {
				*n++
				if sent != nil {
					*sent = append(*sent, seg)
				}
			}
			return true
		},
	})
	if pool != nil {
		s.UseSegmentPool(pool)
	}
	return s
}

// bufferLedgers returns how many sender buffers the pool ever allocated
// and how many of them are held, over all three stores, failing t if a
// ledger does not balance.
func bufferLedgers(t *testing.T, p *SegmentPool) (all, held int) {
	t.Helper()
	for name, s := range p.Stores() {
		if name == "segments" {
			continue
		}
		n, err := pool.Balance(s)
		if err != nil {
			t.Fatal(err)
		}
		held += n
	}
	return p.sent.Len() + p.queues.Len() + p.spacings.Len(), held
}

// TestSenderWarmPoolZeroAlloc is the transport allocation pin: on a warm
// pool, a cycle that grows the local queue and the retransmission ring
// from empty, transmits 200 cells and acknowledges them all, then hands
// the buffers back (as Close does at teardown) allocates nothing.
func TestSenderWarmPoolZeroAlloc(t *testing.T) {
	clock := sim.NewClock()
	sp := NewSegmentPool()
	var transmitted uint64
	s := fixedWindowSender(clock, sp, nil, &transmitted)
	c := &cell.Cell{Circ: 1, Cmd: cell.CmdRelay}
	cycle := func() {
		for i := 0; i < 200; i++ {
			s.Enqueue(c) // 64 leave at once; the rest queue behind them
		}
		for !idle(s) {
			clock.RunUntil(clock.Now().Add(time.Millisecond))
			s.HandleAck(transmitted)
			s.HandleFeedback(transmitted)
		}
		s.releaseBuffers()
	}
	cycle()
	if all, held := bufferLedgers(t, sp); all < 2 || held != 0 {
		t.Fatalf("after one cycle the pool holds %d of %d buffers; want ring and queue buffers, all free", held, all)
	}
	if a := testing.AllocsPerRun(100, cycle); a != 0 {
		t.Fatalf("a warm sender cycle allocates %.1f times", a)
	}
	if transmitted != 102*200 {
		t.Fatalf("transmitted %d cells, want %d", transmitted, 102*200)
	}
}

// TestSenderRingGrowthKeepsRetainedCells pins the growth copy: after the
// retransmission ring has doubled from empty through the pool, an RTO
// still retransmits the very cell first sent under the oldest unacked
// sequence. Handing the old ring back before copying out of it (Put
// zeroes it) would retransmit nothing.
func TestSenderRingGrowthKeepsRetainedCells(t *testing.T) {
	for _, sp := range []*SegmentPool{nil, NewSegmentPool()} {
		clock := sim.NewClock()
		var sent []Segment
		var n uint64
		s := fixedWindowSender(clock, sp, &sent, &n)
		cells := make([]*cell.Cell, 40)
		for i := range cells {
			cells[i] = &cell.Cell{Circ: 1, Cmd: cell.CmdRelay}
			s.Enqueue(cells[i])
		}
		s.HandleAck(5)
		first := len(sent)
		clock.RunUntil(clock.Now().Add(10 * time.Second))
		if len(sent) == first {
			t.Fatal("no retransmission fired")
		}
		if rtx := sent[first]; rtx.Seq != 5 || rtx.Cell != cells[5] {
			t.Fatalf("pool %v: RTO retransmitted seq %d carrying %p, want seq 5 carrying %p", sp != nil, rtx.Seq, rtx.Cell, cells[5])
		}
	}
}

// TestSegmentPoolResetReclaimsSenderBuffers pins the ledger balance at a
// trial boundary: one sender closed mid-flight hands its buffers back,
// another is abandoned holding them, and after Reset every buffer the
// pool ever allocated — and every segment wrapper — is free. The cells
// the closed sender held are not recycled through it.
func TestSegmentPoolResetReclaimsSenderBuffers(t *testing.T) {
	clock := sim.NewClock()
	sp := NewSegmentPool()
	var n uint64
	closed := fixedWindowSender(clock, sp, nil, &n)
	abandoned := fixedWindowSender(clock, sp, nil, &n)
	c := &cell.Cell{Circ: 1, Cmd: cell.CmdRelay}
	c.Payload[0] = 42
	for i := 0; i < 100; i++ {
		closed.Enqueue(c)
		abandoned.Enqueue(c)
	}
	_ = sp.Get() // a wrapper stranded in a dead frame

	all, before := bufferLedgers(t, sp)
	closed.Close()
	after, held := bufferLedgers(t, sp)
	if after != all || before-held != 2 {
		t.Fatalf("Close returned %d buffers, want its ring and queue", before-held)
	}
	if c.Payload[0] != 42 {
		t.Fatal("Close touched a cell it held")
	}
	if held == 0 {
		t.Fatal("the abandoned sender holds no buffer; the test proves nothing")
	}
	for _, s := range sp.Stores() {
		s.Reset()
	}
	if all, held := bufferLedgers(t, sp); held != 0 {
		t.Fatalf("Reset left %d of %d sender buffers held", held, all)
	}
	if held, err := pool.Balance(sp.segments); err != nil || held != 0 {
		t.Fatalf("Reset left %d segment wrappers held (%v)", held, err)
	}
}

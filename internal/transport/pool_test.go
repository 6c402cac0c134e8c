package transport

import (
	"testing"
	"time"

	"circuitstart/internal/cell"
	"circuitstart/internal/sim"
)

// fixedWindowSender is a sender with a pinned 64-cell window and no
// network: Send records data segments into sent (nil = count only).
func fixedWindowSender(clock *sim.Clock, pool *SegmentPool, sent *[]Segment, n *uint64) *Sender {
	s := NewSender(Config{
		Clock: clock, Circ: 1,
		Startup: NoStartup{}, DisableAvoidance: true,
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
	s.UseSegmentPool(pool)
	return s
}

// bufferLedgers returns how many sender buffers the pool ever allocated
// and how many are on its free lists, over all three stores.
func bufferLedgers(p *SegmentPool) (all, free int) {
	all = p.sent.AllLen() + p.queues.AllLen() + p.spacings.AllLen()
	free = p.sent.FreeLen() + p.queues.FreeLen() + p.spacings.FreeLen()
	return all, free
}

// TestSenderWarmPoolZeroAlloc is the transport allocation pin: on a warm
// pool, a cycle that grows the local queue and the retransmission ring
// from empty, transmits 200 cells and acknowledges them all, then hands
// the buffers back (as Close does at teardown) allocates nothing.
func TestSenderWarmPoolZeroAlloc(t *testing.T) {
	clock := sim.NewClock()
	pool := NewSegmentPool()
	var transmitted uint64
	s := fixedWindowSender(clock, pool, nil, &transmitted)
	c := &cell.Cell{Circ: 1, Cmd: cell.CmdRelay}
	cycle := func() {
		for i := 0; i < 200; i++ {
			s.Enqueue(c) // 64 leave at once; the rest queue behind them
		}
		for !s.Idle() {
			clock.RunUntil(clock.Now().Add(time.Millisecond))
			s.HandleAck(transmitted)
			s.HandleFeedback(transmitted)
		}
		s.releaseBuffers()
	}
	cycle()
	if all, free := bufferLedgers(pool); all < 2 || free != all {
		t.Fatalf("after one cycle the pool holds %d buffers, %d free; want ring and queue buffers, all free", all, free)
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
	for _, pool := range []*SegmentPool{nil, NewSegmentPool()} {
		clock := sim.NewClock()
		var sent []Segment
		var n uint64
		s := fixedWindowSender(clock, pool, &sent, &n)
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
			t.Fatalf("pool %v: RTO retransmitted seq %d carrying %p, want seq 5 carrying %p", pool != nil, rtx.Seq, rtx.Cell, cells[5])
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
	pool := NewSegmentPool()
	var n uint64
	closed := fixedWindowSender(clock, pool, nil, &n)
	abandoned := fixedWindowSender(clock, pool, nil, &n)
	c := &cell.Cell{Circ: 1, Cmd: cell.CmdRelay}
	c.Payload[0] = 42
	for i := 0; i < 100; i++ {
		closed.Enqueue(c)
		abandoned.Enqueue(c)
	}
	_ = pool.Get() // a wrapper stranded in a dead frame

	heldAll, heldFree := bufferLedgers(pool)
	closed.Close()
	all, free := bufferLedgers(pool)
	if all != heldAll || free-heldFree != 2 {
		t.Fatalf("Close returned %d buffers, want its ring and queue", free-heldFree)
	}
	if c.Payload[0] != 42 {
		t.Fatal("Close touched a cell it held")
	}
	if free == all {
		t.Fatal("the abandoned sender holds no buffer; the test proves nothing")
	}
	pool.Reset()
	if all, free := bufferLedgers(pool); free != all {
		t.Fatalf("Reset left %d of %d sender buffers held", all-free, all)
	}
	if len(pool.free) != len(pool.all) {
		t.Fatalf("Reset left %d of %d segment wrappers held", len(pool.all)-len(pool.free), len(pool.all))
	}
}

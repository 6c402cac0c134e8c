package cell

// Pool recycles Cell objects between the two ends of a simulated
// circuit: the consuming endpoint returns each in-order-delivered cell,
// and the producing endpoint draws a cell from the pool, instead of the
// heap, at the moment it transmits one. A transfer's cells therefore
// circulate while it runs — the pool grows to the cells in flight, not
// to the transfer's size. A simulation is single-threaded on its clock,
// so the pool is a plain free list with deterministic reuse order.
//
// Reuse is safe even though hop senders retain delivered cells until
// acknowledgment, and now happens while they do: retransmissions of an
// already-delivered sequence are discarded by the receiver's sequence
// check without reading the cell, so a recycled cell's new content can
// never be observed on an old sequence number.
//
// A nil *Pool is valid and degrades to plain allocation.
//
// The pool remembers every cell it ever allocated so Reset can reclaim
// cells stranded in a dead trial's structures (in flight or retained
// for retransmission when the trial stopped) along with the free ones.
type Pool struct {
	free []*Cell
	all  []*Cell
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// Get returns a cell for the caller to fill. The caller must set Circ
// and the full payload (SetRelay overwrites it end to end); recycled
// cells are not zeroed.
func (p *Pool) Get() *Cell {
	if p == nil {
		return &Cell{}
	}
	if n := len(p.free); n > 0 {
		c := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return c
	}
	c := &Cell{}
	p.all = append(p.all, c)
	return c
}

// Put recycles a cell whose content has been consumed.
func (p *Pool) Put(c *Cell) {
	if p == nil || c == nil {
		return
	}
	p.free = append(p.free, c)
}

// Reset reclaims every cell the pool ever allocated — free or not —
// rebuilding the free list in allocation order. Only call it at a trial
// boundary, after everything that could hold a cell (endpoints, hop
// senders, frames in flight) has been discarded; resetting under a live
// circuit aliases memory.
func (p *Pool) Reset() {
	if p == nil {
		return
	}
	p.free = append(p.free[:0], p.all...)
}

// All returns the allocation ledger: every cell the pool holds, free or
// not.
func (p *Pool) All() []*Cell { return p.all }

// FreeLen exposes the free-list depth for tests.
func (p *Pool) FreeLen() int { return len(p.free) }

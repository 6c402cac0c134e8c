// Package bufpool is the size-classed buffer store behind every growable
// buffer the simulator keeps per link or per hop: link frame rings, and a
// hop sender's retransmission ring, local queue and exit-measurement
// spacings.
//
// A Store hands out slices whose length is a power of two. Each length
// has its own free list and an allocation ledger that remembers every
// buffer the class ever allocated, so Reset can reclaim buffers still
// held by a discarded trial's links and senders along with the free ones.
// A growing buffer takes its larger successor from the store and hands
// the smaller one back, so across trials fresh owners regrow into the
// buffers earlier owners grew.
//
// Like the other pools in this repository a Store is a plain free list:
// each simulation is single-threaded on its own clock, so no locking, and
// reuse order is deterministic. A nil *Store is valid and degrades to
// plain allocation (Get) and dropping on the floor (Put).
package bufpool

import "math/bits"

// MinLen is the length of the smallest buffer a Store hands out.
const MinLen = 8

// Store is a size-classed free list of []T buffers with an allocation
// ledger. The zero value is ready to use.
type Store[T any] struct {
	// classes[k] holds the buffers of length MinLen<<k.
	classes []class[T]
}

// class is one buffer length's free list and allocation ledger.
type class[T any] struct {
	free, all [][]T
}

// classOf returns the class index for a request of n elements: the
// smallest k with MinLen<<k ≥ n.
func classOf(n int) int {
	if n <= MinLen {
		return 0
	}
	return bits.Len(uint(n-1)) - bits.Len(uint(MinLen-1))
}

func (s *Store[T]) class(k int) *class[T] {
	for len(s.classes) <= k {
		s.classes = append(s.classes, class[T]{})
	}
	return &s.classes[k]
}

// Get returns a buffer of length at least n — n rounded up to a power of
// two, and at least MinLen — allocating one only when its class has none
// free. A buffer fresh from the store is zeroed; one handed back by Put
// was zeroed there.
func (s *Store[T]) Get(n int) []T {
	k := classOf(n)
	if s == nil {
		return make([]T, MinLen<<k)
	}
	c := s.class(k)
	if m := len(c.free); m > 0 {
		buf := c.free[m-1]
		c.free[m-1] = nil
		c.free = c.free[:m-1]
		return buf
	}
	buf := make([]T, MinLen<<k)
	c.all = append(c.all, buf)
	return buf
}

// Put hands a buffer obtained from Get back to the store. The whole
// buffer is zeroed first, so the store pins nothing its owner pointed
// to; the owner must not touch it afterwards. Put of a nil or empty
// buffer is a no-op.
func (s *Store[T]) Put(buf []T) {
	if s == nil || cap(buf) == 0 {
		return
	}
	buf = buf[:cap(buf)]
	clear(buf)
	c := s.class(classOf(len(buf)))
	c.free = append(c.free, buf)
}

// Append is append with growth through the store: when buf is full its
// contents move to a buffer of twice the capacity (at least MinLen) from
// the store, and the old buffer goes back.
func (s *Store[T]) Append(buf []T, v T) []T {
	if len(buf) == cap(buf) {
		grown := s.Get(2 * len(buf))
		n := copy(grown, buf)
		s.Put(buf)
		buf = grown[:n]
	}
	return append(buf, v)
}

// Reset reclaims every buffer the store ever allocated — free or still
// held — zeroing each and rebuilding the free lists in allocation order.
// Only call it at a trial boundary, after every owner of a held buffer
// has been discarded; resetting under live owners aliases memory.
func (s *Store[T]) Reset() {
	if s == nil {
		return
	}
	for k := range s.classes {
		c := &s.classes[k]
		for _, buf := range c.all {
			clear(buf)
		}
		c.free = append(c.free[:0], c.all...)
	}
}

// AllLen returns how many buffers the store ever allocated. Together
// with FreeLen it lets leak tests assert the ledger balances: after
// Reset, every allocated buffer must be on a free list.
func (s *Store[T]) AllLen() int {
	if s == nil {
		return 0
	}
	n := 0
	for _, c := range s.classes {
		n += len(c.all)
	}
	return n
}

// FreeLen returns how many buffers are currently on the free lists.
func (s *Store[T]) FreeLen() int {
	if s == nil {
		return 0
	}
	n := 0
	for _, c := range s.classes {
		n += len(c.free)
	}
	return n
}

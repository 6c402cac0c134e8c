package pool

import "math/bits"

// minLen is the length of the smallest buffer a Buffers store hands out.
const minLen = 8

// Buffers is a size-classed free list of []T buffers with an allocation
// ledger. It is the store behind every growable buffer the simulator
// keeps per link or per hop: link frame rings, and a hop sender's
// retransmission ring, local queue and exit-measurement spacings. Every
// buffer's length is a power of two, and each length has its own ledger,
// so across trials fresh owners regrow into the buffers earlier owners
// grew. The zero value is ready to use.
type Buffers[T any] struct {
	// classes[k] holds the buffers of length minLen<<k.
	classes []ledger[[]T]
}

// classOf returns the class index for a request of n elements: the
// smallest k with minLen<<k ≥ n.
func classOf(n int) int {
	if n <= minLen {
		return 0
	}
	return bits.Len(uint(n-1)) - bits.Len(uint(minLen-1))
}

func (s *Buffers[T]) class(k int) *ledger[[]T] {
	for len(s.classes) <= k {
		s.classes = append(s.classes, ledger[[]T]{})
	}
	return &s.classes[k]
}

// Get returns a buffer of length at least n — n rounded up to a power of
// two, and at least minLen — allocating one only when its class has none
// free. A buffer fresh from the store is zeroed; one handed back by Put
// was zeroed there.
func (s *Buffers[T]) Get(n int) []T {
	k := classOf(n)
	if s == nil {
		return make([]T, minLen<<k)
	}
	c := s.class(k)
	if buf, ok := c.pop(); ok {
		return buf
	}
	buf := make([]T, minLen<<k)
	c.all = append(c.all, buf)
	return buf
}

// Put hands a buffer obtained from Get back to the store. The whole
// buffer is zeroed first; the owner must not touch it afterwards. Put of
// a nil or empty buffer is a no-op.
func (s *Buffers[T]) Put(buf []T) {
	if s == nil || cap(buf) == 0 {
		return
	}
	buf = buf[:cap(buf)]
	clear(buf)
	c := s.class(classOf(len(buf)))
	c.free = append(c.free, buf)
}

// Append is append with growth through the store: when buf is full its
// contents move to a buffer of twice the capacity (at least minLen) from
// the store, and the old buffer goes back.
func (s *Buffers[T]) Append(buf []T, v T) []T {
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
func (s *Buffers[T]) Reset() {
	if s == nil {
		return
	}
	for k := range s.classes {
		s.classes[k].reset(func(buf []T) { clear(buf) })
	}
}

// Len returns how many buffers the store ever allocated. Test-only:
// transport's TestSenderWarmPoolZeroAlloc reads the ledger with it.
func (s *Buffers[T]) Len() int {
	n := 0
	for _, c := range s.classes {
		n += len(c.all)
	}
	return n
}

// ids identifies a buffer by its first element, which stays in place
// however the owner reslices the buffer.
func (s *Buffers[T]) ids() (all, free []any) {
	for _, c := range s.classes {
		a, f := c.ids(func(buf []T) any { return &buf[0] })
		all, free = append(all, a...), append(free, f...)
	}
	return all, free
}

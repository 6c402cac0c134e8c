// Package pool is the one pooling discipline of the simulator. Every
// object and buffer a trial recycles — cells, frames, segment wrappers,
// link rings, hop-sender buffers, trial-lifetime slot objects — lives in
// one of its two stores:
//
//   - Objects[T] recycles *T values, with an optional hook that runs on
//     Put;
//   - Buffers[T] recycles []T buffers in power-of-two size classes, so a
//     growing buffer takes its larger successor from the store and hands
//     the smaller one back.
//
// Both keep the same free list and allocation ledger, written once here.
// The ledger remembers every entry the store ever allocated, so Reset can
// reclaim entries a discarded trial still holds along with the free
// ones, and Balance can check the free lists against it. The contract is
// the same for both:
//
//   - Put zeroes what it takes back, so a store pins nothing its last
//     owner pointed to and Get always returns zeroed memory.
//   - Reset zeroes every entry and rebuilds the free lists in allocation
//     order. Call it only at a trial boundary, after every owner of a
//     held entry has been discarded; resetting under live owners aliases
//     memory.
//   - A nil store allocates plainly and drops what it is handed back.
//
// Each simulation is single-threaded on its own clock, so no store locks,
// and reuse order is deterministic.
package pool

import "errors"

// ledger is the free list and allocation ledger both stores keep: all
// holds every entry the store allocated, in allocation order, and free
// the entries ready to hand out.
type ledger[E any] struct {
	free, all []E
}

// pop takes the most recently freed entry, if there is one.
func (l *ledger[E]) pop() (e E, ok bool) {
	n := len(l.free)
	if n == 0 {
		return e, false
	}
	e, l.free = l.free[n-1], l.free[:n-1]
	return e, true
}

// reset zeroes every allocated entry with wipe and puts them all on the
// free list, in allocation order.
func (l *ledger[E]) reset(wipe func(E)) {
	for _, e := range l.all {
		wipe(e)
	}
	l.free = append(l.free[:0], l.all...)
}

// ids returns the identity of every allocated entry and of every free
// one.
func (l *ledger[E]) ids(id func(E) any) (all, free []any) {
	for _, e := range l.all {
		all = append(all, id(e))
	}
	for _, e := range l.free {
		free = append(free, id(e))
	}
	return all, free
}

// Store is an Objects or a Buffers as an owner that resets and balances
// many stores sees it.
type Store interface {
	Reset()
	// ids returns the identity of every entry the store allocated and
	// of every entry on its free lists.
	ids() (all, free []any)
}

// Balance checks the ledgers of stores of one kind as one ledger: a
// single store, or the stores of trials that trade entries (the shards
// of a sharded trial draw a cell on one shard and recycle it on
// another). It fails if a free list holds an entry twice, or one no
// store of the group allocated. Otherwise it returns how many allocated
// entries are held, that is, on no free list.
func Balance(group ...Store) (held int, err error) {
	isFree := make(map[any]bool)
	frees := make([][]any, 0, len(group))
	for _, s := range group {
		all, free := s.ids()
		for _, id := range all {
			isFree[id] = false
		}
		frees = append(frees, free)
	}
	held = len(isFree)
	for _, free := range frees {
		for _, id := range free {
			was, owned := isFree[id]
			switch {
			case !owned:
				return 0, errors.New("pool: a free list holds an entry no store allocated")
			case was:
				return 0, errors.New("pool: a free list holds an entry twice")
			}
			isFree[id] = true
			held--
		}
	}
	return held, nil
}

// Objects is a free list of *T with an allocation ledger. The zero value
// is ready to use.
type Objects[T any] struct {
	ledger[*T]
	// OnPut, when set, runs on each object Put takes back, before the
	// object is zeroed. The arena uses it to end the life of whatever a
	// dying frame carries.
	OnPut func(*T)
}

// Get returns a zeroed object, allocating one only when none is free.
func (s *Objects[T]) Get() *T {
	if s == nil {
		return new(T)
	}
	if x, ok := s.pop(); ok {
		return x
	}
	x := new(T)
	s.all = append(s.all, x)
	return x
}

// Put hands an object obtained from Get back to the store: the put hook
// runs, then the object is zeroed. The owner must not touch it
// afterwards. Put of nil is a no-op.
func (s *Objects[T]) Put(x *T) {
	if s == nil || x == nil {
		return
	}
	if s.OnPut != nil {
		s.OnPut(x)
	}
	*x = *new(T)
	s.free = append(s.free, x)
}

// Reset reclaims every object the store ever allocated — free or still
// held — zeroing each without running the put hook, and rebuilds the
// free list in allocation order.
func (s *Objects[T]) Reset() {
	if s == nil {
		return
	}
	s.reset(func(x *T) { *x = *new(T) })
}

// Len returns how many objects the store ever allocated.
func (s *Objects[T]) Len() int { return len(s.all) }

func (s *Objects[T]) ids() (all, free []any) {
	return s.ledger.ids(func(x *T) any { return x })
}

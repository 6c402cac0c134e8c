package pool

import "testing"

type obj struct {
	n   int
	ref *int
}

// FuzzObjects runs random Get/Put/Reset sequences against a model of the
// store — the live set, the free stack and the allocation order — and
// checks after every step that no live object is handed out twice, that
// Get returns zeroed memory and Put zeroes after running the hook once,
// that Reset restores allocation order without running the hook, and
// that Balance counts exactly the live objects. At the end a seeded
// double Put and a foreign Put must each make Balance fail.
func FuzzObjects(f *testing.F) {
	f.Add([]byte{0, 0, 0, 2, 1, 2, 0, 7, 0, 0})
	f.Add([]byte{0, 1, 0, 1, 2, 0, 2, 1, 7, 7, 0, 2, 0, 0, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var s Objects[obj]
		hooked := 0
		s.OnPut = func(x *obj) {
			if x.ref == nil {
				t.Fatal("the hook saw a zeroed object: Put zeroed before the hook ran")
			}
			hooked++
		}
		var (
			live  []*obj // handed out, not yet put back
			free  []*obj // the model free stack
			order []*obj // allocation order
		)
		marker := 1
		for i := 0; i < len(ops); i++ {
			switch op := ops[i] % 8; {
			case op < 2: // Get
				x := s.Get()
				if *x != (obj{}) {
					t.Fatalf("Get returned a dirty object %+v", *x)
				}
				for _, l := range live {
					if l == x {
						t.Fatal("a live object was handed out twice")
					}
				}
				if n := len(free); n > 0 {
					if want := free[n-1]; x != want {
						t.Fatal("Get did not return the most recently freed object")
					}
					free = free[:n-1]
				} else {
					order = append(order, x)
				}
				x.n, x.ref = marker, &marker
				live = append(live, x)
			case op < 7: // Put
				if len(live) == 0 {
					continue
				}
				j := 0
				if i+1 < len(ops) {
					i++
					j = int(ops[i]) % len(live)
				}
				x := live[j]
				live = append(live[:j], live[j+1:]...)
				before := hooked
				s.Put(x)
				if hooked != before+1 {
					t.Fatalf("Put ran the hook %d times, want once", hooked-before)
				}
				if *x != (obj{}) {
					t.Fatalf("Put left %+v, want it zeroed", *x)
				}
				free = append(free, x)
			default: // Reset
				before := hooked
				s.Reset()
				if hooked != before {
					t.Fatal("Reset ran the put hook")
				}
				for _, x := range order {
					if *x != (obj{}) {
						t.Fatalf("Reset left %+v, want every object zeroed", *x)
					}
				}
				live = live[:0]
				free = append(free[:0], order...)
			}
			held, err := Balance(&s)
			if err != nil {
				t.Fatal(err)
			}
			if held != len(live) || s.Len() != len(order) {
				t.Fatalf("Balance holds %d of %d, want %d of %d", held, s.Len(), len(live), len(order))
			}
		}

		s.OnPut = nil
		x := s.Get()
		s.Put(x)
		s.Put(x)
		if _, err := Balance(&s); err == nil {
			t.Fatal("Balance missed a double Put")
		}
		s.Reset()
		s.Put(&obj{ref: &marker})
		if _, err := Balance(&s); err == nil {
			t.Fatal("Balance missed an object the store did not allocate")
		}
	})
}

// TestObjectsNilStoreAllocatesPlainly pins the nil store: Get allocates
// a fresh object every time, and Put and Reset do nothing.
func TestObjectsNilStoreAllocatesPlainly(t *testing.T) {
	var s *Objects[obj]
	a, b := s.Get(), s.Get()
	if a == b || *a != (obj{}) {
		t.Fatal("a nil store must allocate a fresh zeroed object per Get")
	}
	s.Put(a)
	s.Reset()
}

// TestBalanceGroupsTradingStores pins the group form of Balance: an
// object drawn from one store and put back into another is foreign to
// the second store alone, but balances across the two.
func TestBalanceGroupsTradingStores(t *testing.T) {
	var a, b Objects[obj]
	b.Put(a.Get())
	if _, err := Balance(&b); err == nil {
		t.Fatal("Balance of one store accepted an object it did not allocate")
	}
	if held, err := Balance(&a, &b); err != nil || held != 0 {
		t.Fatalf("the traded object does not balance across both stores: held %d, %v", held, err)
	}
}

package bufpool

import "testing"

func TestStoreGetRoundsUpToPowerOfTwoClasses(t *testing.T) {
	var s Store[int]
	for _, tc := range []struct{ n, want int }{
		{0, MinLen}, {1, MinLen}, {MinLen, MinLen}, {MinLen + 1, 2 * MinLen},
		{32, 32}, {33, 64}, {1000, 1024},
	} {
		if got := len(s.Get(tc.n)); got != tc.want {
			t.Errorf("Get(%d) has length %d, want %d", tc.n, got, tc.want)
		}
		var nilStore *Store[int]
		if got := len(nilStore.Get(tc.n)); got != tc.want {
			t.Errorf("nil Get(%d) has length %d, want %d", tc.n, got, tc.want)
		}
	}
}

// TestStorePutZeroesAndReuses pins the hand-back contract: a buffer put
// back is zeroed, so the store pins nothing its owner pointed to, and
// the next Get of its class returns it instead of allocating.
func TestStorePutZeroesAndReuses(t *testing.T) {
	var s Store[*int]
	x := 7
	buf := s.Get(10)
	for i := range buf {
		buf[i] = &x
	}
	s.Put(buf[:3]) // a resliced buffer goes back whole
	if s.AllLen() != 1 || s.FreeLen() != 1 {
		t.Fatalf("ledger %d all / %d free after one Put, want 1 / 1", s.AllLen(), s.FreeLen())
	}
	again := s.Get(16)
	if &again[0] != &buf[0] {
		t.Fatal("Get allocated although its class held a free buffer")
	}
	for i, p := range again {
		if p != nil {
			t.Fatalf("slot %d still points into the previous owner", i)
		}
	}
	if other := s.Get(9); &other[0] == &buf[0] || s.AllLen() != 2 {
		t.Fatal("one buffer was handed out twice")
	}
	s.Put(nil) // no-op
	var nilStore *Store[*int]
	nilStore.Put(again)
	nilStore.Reset()
	if nilStore.AllLen() != 0 || nilStore.FreeLen() != 0 {
		t.Fatal("a nil store reports buffers")
	}
}

// TestStoreAppendGrowsThroughStore pins Append: contents survive each
// doubling, and every outgrown buffer is back on a free list.
func TestStoreAppendGrowsThroughStore(t *testing.T) {
	var s Store[int]
	var buf []int
	for i := 0; i < 100; i++ {
		buf = s.Append(buf, i)
	}
	for i, v := range buf {
		if v != i {
			t.Fatalf("buf[%d] = %d after growth, want %d", i, v, i)
		}
	}
	// 8, 16, 32, 64 outgrown; 128 held.
	if s.AllLen() != 5 || s.FreeLen() != 4 {
		t.Fatalf("ledger %d all / %d free, want 5 / 4", s.AllLen(), s.FreeLen())
	}
}

// TestStoreResetBalancesLedger pins the trial boundary: Reset puts every
// buffer the ledger ever allocated — held ones included — on a free
// list, zeroed, and a second trial of the same shape allocates nothing.
func TestStoreResetBalancesLedger(t *testing.T) {
	var s Store[int]
	trial := func() [][]int {
		var held [][]int
		for n := 1; n <= 200; n += 37 {
			b := s.Get(n)
			for i := range b {
				b[i] = n
			}
			held = append(held, b)
		}
		s.Put(held[0])
		return held[1:]
	}
	held := trial()
	all := s.AllLen()
	if s.FreeLen() == all {
		t.Fatal("the trial holds no buffer; the test proves nothing")
	}
	s.Reset()
	if s.FreeLen() != all || s.AllLen() != all {
		t.Fatalf("Reset left %d of %d buffers free", s.FreeLen(), all)
	}
	for _, b := range held {
		for i, v := range b {
			if v != 0 {
				t.Fatalf("a held buffer kept %d at slot %d across Reset", v, i)
			}
		}
	}
	trial()
	if s.AllLen() != all {
		t.Fatalf("the second trial allocated %d more buffers", s.AllLen()-all)
	}
}

func TestStoreWarmCycleZeroAlloc(t *testing.T) {
	var s Store[int]
	cycle := func() {
		var buf []int
		for i := 0; i < 300; i++ {
			buf = s.Append(buf, i)
		}
		s.Put(buf)
	}
	cycle()
	if a := testing.AllocsPerRun(100, cycle); a != 0 {
		t.Fatalf("a warm grow-and-return cycle allocates %.1f times", a)
	}
}

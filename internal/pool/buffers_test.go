package pool

import "testing"

// ledgerOf returns how many buffers s ever allocated and how many of
// them are free, failing t if the ledger does not balance.
func ledgerOf[T any](t *testing.T, s *Buffers[T]) (all, free int) {
	t.Helper()
	held, err := Balance(s)
	if err != nil {
		t.Fatal(err)
	}
	return s.Len(), s.Len() - held
}

func TestBuffersGetRoundsUpToPowerOfTwoClasses(t *testing.T) {
	var s Buffers[int]
	for _, tc := range []struct{ n, want int }{
		{0, MinLen}, {1, MinLen}, {MinLen, MinLen}, {MinLen + 1, 2 * MinLen},
		{32, 32}, {33, 64}, {1000, 1024},
	} {
		if got := len(s.Get(tc.n)); got != tc.want {
			t.Errorf("Get(%d) has length %d, want %d", tc.n, got, tc.want)
		}
		var nilStore *Buffers[int]
		if got := len(nilStore.Get(tc.n)); got != tc.want {
			t.Errorf("nil Get(%d) has length %d, want %d", tc.n, got, tc.want)
		}
	}
}

// TestBuffersPutZeroesAndReuses pins the hand-back contract: a buffer put
// back is zeroed, so the store pins nothing its owner pointed to, and
// the next Get of its class returns it instead of allocating.
func TestBuffersPutZeroesAndReuses(t *testing.T) {
	var s Buffers[*int]
	x := 7
	buf := s.Get(10)
	for i := range buf {
		buf[i] = &x
	}
	s.Put(buf[:3]) // a resliced buffer goes back whole
	if all, free := ledgerOf(t, &s); all != 1 || free != 1 {
		t.Fatalf("ledger %d all / %d free after one Put, want 1 / 1", all, free)
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
	if other := s.Get(9); &other[0] == &buf[0] || s.Len() != 2 {
		t.Fatal("one buffer was handed out twice")
	}
	s.Put(nil) // no-op
	var nilStore *Buffers[*int]
	nilStore.Put(again)
	nilStore.Reset()
}

// TestBuffersAppendGrowsThroughStore pins Append: contents survive each
// doubling, and every outgrown buffer is back on a free list.
func TestBuffersAppendGrowsThroughStore(t *testing.T) {
	var s Buffers[int]
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
	if all, free := ledgerOf(t, &s); all != 5 || free != 4 {
		t.Fatalf("ledger %d all / %d free, want 5 / 4", all, free)
	}
}

// TestBuffersResetBalancesLedger pins the trial boundary: Reset puts
// every buffer the ledger ever allocated — held ones included — on a
// free list, zeroed, and a second trial of the same shape allocates
// nothing.
func TestBuffersResetBalancesLedger(t *testing.T) {
	var s Buffers[int]
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
	all, free := ledgerOf(t, &s)
	if free == all {
		t.Fatal("the trial holds no buffer; the test proves nothing")
	}
	s.Reset()
	if after, free := ledgerOf(t, &s); free != all || after != all {
		t.Fatalf("Reset left %d of %d buffers free", free, all)
	}
	for _, b := range held {
		for i, v := range b {
			if v != 0 {
				t.Fatalf("a held buffer kept %d at slot %d across Reset", v, i)
			}
		}
	}
	trial()
	if s.Len() != all {
		t.Fatalf("the second trial allocated %d more buffers", s.Len()-all)
	}
}

func TestBuffersWarmCycleZeroAlloc(t *testing.T) {
	var s Buffers[int]
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

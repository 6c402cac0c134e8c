package netem

import (
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"circuitstart/internal/pool"
	"circuitstart/internal/sim"
	"circuitstart/internal/units"
)

// TestFrameFitsItsSizeClass keeps the resolved destination free: the
// graph fabric's dstSw shares a word with trainLen, so a pooled frame
// stays in the 112-byte allocation class it had before it carried one.
func TestFrameFitsItsSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Frame{}); size > 112 {
		t.Fatalf("Frame is %d bytes, more than the 112-byte size class", size)
	}
}

// sink collects delivered frames with their arrival times. It snapshots
// each frame: fabric-routed frames are recycled the moment Deliver
// returns, so retaining the pointer would read reused storage.
type sink struct {
	clock  *sim.Clock
	frames []*Frame
	times  []sim.Time
}

func (s *sink) Deliver(f *Frame) {
	cp := *f
	s.frames = append(s.frames, &cp)
	s.times = append(s.times, s.clock.Now())
}

func newTestLink(t *testing.T, cfg LinkConfig) (*sim.Clock, *Link, *sink) {
	t.Helper()
	clock := sim.NewClock()
	dst := &sink{clock: clock}
	return clock, NewLink("test", clock, cfg, dst), dst
}

func TestLinkDeliveryLatency(t *testing.T) {
	// 512B at 8 Mbit/s = 512µs serialization + 10ms propagation.
	clock, link, dst := newTestLink(t, LinkConfig{Rate: units.Mbps(8), Delay: 10 * time.Millisecond})
	link.Send(&Frame{Src: "a", Dst: "b", Size: 512})
	clock.Run()
	if len(dst.frames) != 1 {
		t.Fatalf("delivered %d frames, want 1", len(dst.frames))
	}
	want := sim.Time(512*time.Microsecond + 10*time.Millisecond)
	if dst.times[0] != want {
		t.Errorf("delivered at %v, want %v", dst.times[0], want)
	}
}

func TestLinkSerializesSequentially(t *testing.T) {
	// Two back-to-back frames: second arrives one serialization time
	// after the first (pipelined through propagation).
	clock, link, dst := newTestLink(t, LinkConfig{Rate: units.Mbps(8), Delay: 10 * time.Millisecond})
	link.Send(&Frame{Src: "a", Dst: "b", Size: 512})
	link.Send(&Frame{Src: "a", Dst: "b", Size: 512})
	clock.Run()
	if len(dst.times) != 2 {
		t.Fatalf("delivered %d frames, want 2", len(dst.times))
	}
	gap := dst.times[1].Sub(dst.times[0])
	if gap != 512*time.Microsecond {
		t.Errorf("inter-arrival gap %v, want 512µs (one serialization time)", gap)
	}
}

func TestLinkPreservesFIFOOrder(t *testing.T) {
	clock, link, dst := newTestLink(t, LinkConfig{Rate: units.Mbps(100), Delay: time.Millisecond})
	for i := 0; i < 20; i++ {
		link.Send(&Frame{Src: "a", Dst: "b", Size: 512, Payload: i})
	}
	clock.Run()
	if len(dst.frames) != 20 {
		t.Fatalf("delivered %d, want 20", len(dst.frames))
	}
	for i, f := range dst.frames {
		if f.Payload.(int) != i {
			t.Fatalf("frame %d carries payload %v: order violated", i, f.Payload)
		}
	}
}

func TestLinkTailDrop(t *testing.T) {
	// Queue capacity of 2 cells: with one in serialization, the 4th
	// concurrent send must be dropped.
	clock, link, dst := newTestLink(t, LinkConfig{
		Rate: units.Mbps(1), Delay: time.Millisecond, QueueCap: 1024,
	})
	var drops []DropReason
	link.OnDrop = func(f *Frame, r DropReason) { drops = append(drops, r) }

	accepted := 0
	for i := 0; i < 4; i++ {
		if link.Send(&Frame{Src: "a", Dst: "b", Size: 512}) {
			accepted++
		}
	}
	// First send goes straight into serialization (queue momentarily
	// empty again), two fill the queue, the fourth overflows.
	if accepted != 3 {
		t.Errorf("accepted %d frames, want 3", accepted)
	}
	clock.Run()
	if len(dst.frames) != 3 {
		t.Errorf("delivered %d frames, want 3", len(dst.frames))
	}
	st := link.Stats()
	if st.TailDrops != 1 {
		t.Errorf("TailDrops = %d, want 1", st.TailDrops)
	}
	if len(drops) != 1 || drops[0] != dropTail {
		t.Errorf("OnDrop saw %v, want one tail-drop", drops)
	}
}

func TestLinkRandomLoss(t *testing.T) {
	clock := sim.NewClock()
	dst := &sink{clock: clock}
	rng := sim.NewRNG(42, "loss")
	link := NewLink("lossy", clock, LinkConfig{
		Rate: units.Mbps(100), Delay: time.Millisecond, LossProb: 0.3, RNG: rng,
	}, dst)
	const n = 2000
	for i := 0; i < n; i++ {
		link.Send(&Frame{Src: "a", Dst: "b", Size: 512})
	}
	clock.Run()
	st := link.Stats()
	if st.CellsDelivered+st.RandomLoss != n {
		t.Fatalf("delivered %d + lost %d != %d", st.CellsDelivered, st.RandomLoss, n)
	}
	lossRate := float64(st.RandomLoss) / n
	if lossRate < 0.25 || lossRate > 0.35 {
		t.Errorf("observed loss rate %.3f, want ≈0.3", lossRate)
	}
}

func TestLinkStatsAccounting(t *testing.T) {
	clock, link, _ := newTestLink(t, LinkConfig{Rate: units.Mbps(8), Delay: 0})
	for i := 0; i < 5; i++ {
		link.Send(&Frame{Src: "a", Dst: "b", Size: 512})
	}
	clock.Run()
	st := link.Stats()
	if st.Enqueued != 5 || st.CellsDelivered != 5 {
		t.Errorf("Enqueued=%d Delivered=%d, want 5/5", st.Enqueued, st.CellsDelivered)
	}
	if st.BytesOut != 5*512 {
		t.Errorf("BytesOut = %v, want 2560", st.BytesOut)
	}
	if st.MaxQueueLen != 4 {
		// 5 concurrent sends: head enters serialization, 4 queue.
		t.Errorf("MaxQueueLen = %d, want 4", st.MaxQueueLen)
	}
	// Queue delay: frame i waits i serialization times ≈ i·512µs.
	wantDelay := time.Duration(1+2+3+4) * 512 * time.Microsecond
	if st.QueueDelay != wantDelay {
		t.Errorf("QueueDelay = %v, want %v", st.QueueDelay, wantDelay)
	}
}

func TestLinkThroughputMatchesRate(t *testing.T) {
	// Saturate a 4 Mbit/s link for 1000 cells and check goodput.
	clock, link, dst := newTestLink(t, LinkConfig{Rate: units.Mbps(4), Delay: 5 * time.Millisecond})
	const n = 1000
	for i := 0; i < n; i++ {
		link.Send(&Frame{Src: "a", Dst: "b", Size: 512})
	}
	end := clock.Run()
	if len(dst.frames) != n {
		t.Fatalf("delivered %d frames", len(dst.frames))
	}
	elapsed := end.Duration() - 5*time.Millisecond // subtract propagation
	rate := units.RateFromTransfer(n*512, elapsed)
	if r := rate.Mbit(); r < 3.99 || r > 4.01 {
		t.Errorf("achieved %.3f Mbit/s on a 4 Mbit/s link", r)
	}
}

func TestLinkValidation(t *testing.T) {
	clock := sim.NewClock()
	dst := &sink{clock: clock}
	cases := []struct {
		name string
		cfg  LinkConfig
		dst  Handler
	}{
		{"zero rate", LinkConfig{Rate: 0}, dst},
		{"negative delay", LinkConfig{Rate: 1, Delay: -time.Second}, dst},
		{"bad loss prob", LinkConfig{Rate: 1, LossProb: 1.5}, dst},
		{"loss without rng", LinkConfig{Rate: 1, LossProb: 0.1}, dst},
		{"nil dst", LinkConfig{Rate: 1}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("NewLink(%s) did not panic", tc.name)
				}
			}()
			NewLink("bad", clock, tc.cfg, tc.dst)
		})
	}
}

func TestLinkSendZeroSizePanics(t *testing.T) {
	_, link, _ := newTestLink(t, LinkConfig{Rate: units.Mbps(1)})
	defer func() {
		if recover() == nil {
			t.Error("Send with zero size did not panic")
		}
	}()
	link.Send(&Frame{Src: "a", Dst: "b", Size: 0})
}

// Property: with an unbounded queue and no loss, every frame is
// delivered exactly once, in order, and total delivery time is at least
// the analytic lower bound (sum of serializations + propagation).
func TestPropertyLinkConservation(t *testing.T) {
	f := func(sizes []uint8, mbps uint8, delayMs uint8) bool {
		if mbps == 0 || len(sizes) == 0 {
			return true
		}
		if len(sizes) > 100 {
			sizes = sizes[:100]
		}
		clock := sim.NewClock()
		dst := &sink{clock: clock}
		rate := units.Mbps(float64(mbps))
		delay := time.Duration(delayMs) * time.Millisecond
		link := NewLink("prop", clock, LinkConfig{Rate: rate, Delay: delay}, dst)
		var total units.DataSize
		for i, s := range sizes {
			size := units.DataSize(s) + 1
			total += size
			if !link.Send(&Frame{Src: "a", Dst: "b", Size: size, Payload: i}) {
				return false
			}
		}
		end := clock.Run()
		if len(dst.frames) != len(sizes) {
			return false
		}
		for i, fr := range dst.frames {
			if fr.Payload.(int) != i {
				return false
			}
		}
		// TransmissionTime rounds up to the nanosecond; computing it
		// once over the total can land 1 ns above the sum of the
		// per-frame roundings (float ceil), so allow that slack.
		lower := rate.TransmissionTime(total) + delay - time.Nanosecond
		return end.Duration() >= lower
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestLinkZeroDelayDeliveryOrdering(t *testing.T) {
	// With zero propagation delay, a frame's delivery event lands at the
	// same instant its successor starts serializing. FIFO (at, seq)
	// ordering must still deliver frames in send order, one
	// serialization time apart.
	clock, link, dst := newTestLink(t, LinkConfig{Rate: units.Mbps(8), Delay: 0})
	const n = 10
	for i := 0; i < n; i++ {
		link.Send(&Frame{Src: "a", Dst: "b", Size: 512, Payload: i})
	}
	clock.Run()
	if len(dst.frames) != n {
		t.Fatalf("delivered %d, want %d", len(dst.frames), n)
	}
	ser := sim.Time(units.Mbps(8).TransmissionTime(512))
	for i, f := range dst.frames {
		if f.Payload.(int) != i {
			t.Fatalf("delivery %d carries payload %v", i, f.Payload)
		}
		if want := ser * sim.Time(i+1); dst.times[i] != want {
			t.Fatalf("delivery %d at %v, want %v", i, dst.times[i], want)
		}
	}
}

func TestLinkPriorityOrderAfterRingWraparound(t *testing.T) {
	// Cycle far more frames than the rings' initial capacity through a
	// busy link, with interleaved control frames, so both rings wrap
	// repeatedly. Control must keep overtaking queued data, and each
	// class must stay FIFO — exactly what the slice-shift queues did.
	clock := sim.NewClock()
	col := &collector{clock: clock}
	link := NewLink("wrap", clock, LinkConfig{Rate: units.Mbps(8), Delay: time.Millisecond}, col)
	pool := NewFramePool()
	link.UsePool(pool, true)

	const rounds = 40
	var sent int
	for r := 0; r < rounds; r++ {
		r := r
		clock.At(sim.Time(r)*sim.Time(3*time.Millisecond), func() {
			// Three data frames, then one control frame that must
			// overtake the two still queued behind the serializer.
			// Recycled frames keep their fields: every one must be set.
			for j := 0; j < 3; j++ {
				f := pool.Get()
				f.Src, f.Dst, f.Size, f.Priority, f.Payload = "a", "b", 512, false, 10*r+j
				link.Send(f)
				sent++
			}
			f := pool.Get()
			f.Src, f.Dst, f.Size, f.Priority, f.Payload = "a", "b", 64, true, 10*r+9
			link.Send(f)
			sent++
		})
	}
	clock.Run()
	if len(col.got) != sent {
		t.Fatalf("delivered %d of %d", len(col.got), sent)
	}
	var lastData, lastCtrl = -1, -1
	for i, d := range col.got {
		v := d.f.Payload.(int)
		if d.f.Priority {
			if v <= lastCtrl {
				t.Fatalf("control FIFO violated at delivery %d: %d after %d", i, v, lastCtrl)
			}
			lastCtrl = v
		} else {
			if v <= lastData {
				t.Fatalf("data FIFO violated at delivery %d: %d after %d", i, v, lastData)
			}
			lastData = v
		}
	}
	// Per round: the control frame was offered after all three data
	// frames but must be serialized before the two that were still
	// queued (10r+0 serializing, control, then 10r+1, 10r+2).
	for r := 0; r < rounds; r++ {
		posCtrl, posLast := -1, -1
		for i, d := range col.got {
			switch d.f.Payload.(int) {
			case 10*r + 9:
				posCtrl = i
			case 10*r + 2:
				posLast = i
			}
		}
		if posCtrl == -1 || posLast == -1 {
			t.Fatalf("round %d frames missing", r)
		}
		if posCtrl > posLast {
			t.Fatalf("round %d: control delivered at %d after final data at %d", r, posCtrl, posLast)
		}
	}
}

func TestLinkSetRateMidSerializationAppliesNext(t *testing.T) {
	// A rate change while a frame occupies the serializer must not
	// affect that frame — only the next one. (The pre-bound state
	// machine reads the rate when a serialization starts.)
	clock := sim.NewClock()
	col := &collector{clock: clock}
	link := NewLink("l", clock, LinkConfig{Rate: units.Mbps(1), Delay: 0}, col)
	pool := NewFramePool()
	link.UsePool(pool, true)
	for i := 0; i < 2; i++ {
		f := pool.Get()
		f.Src, f.Dst, f.Size, f.Payload = "a", "b", 500, i
		link.Send(f)
	}
	// Halve the rate 1 ms into frame 0's 4 ms serialization.
	clock.After(time.Millisecond, func() { link.SetRate(units.Kbps(500)) })
	clock.Run()
	if len(col.got) != 2 {
		t.Fatalf("delivered %d", len(col.got))
	}
	// Frame 0 finishes at 4 ms (old rate); frame 1 at 4 + 8 = 12 ms.
	if got := col.got[0].at; got != sim.Time(4*time.Millisecond) {
		t.Fatalf("frame 0 delivered at %v, want 4ms", got)
	}
	if got := col.got[1].at; got != sim.Time(12*time.Millisecond) {
		t.Fatalf("frame 1 delivered at %v, want 12ms", got)
	}
}

// heldOf returns how many entries s allocated and how many of them are
// held, failing t if its ledger does not balance.
func heldOf(t *testing.T, s interface {
	pool.Store
	Len() int
}) (all, held int) {
	t.Helper()
	held, err := pool.Balance(s)
	if err != nil {
		t.Fatal(err)
	}
	return s.Len(), held
}

func TestFramePoolRecyclesThroughFabric(t *testing.T) {
	// A frame delivered across the star must come back to the pool:
	// steady-state traffic reuses storage instead of allocating.
	clock := sim.NewClock()
	star := NewStarFabric(clock)
	pa := star.Attach("a", Symmetric(units.Mbps(10), 0, 0), HandlerFunc(func(*Frame) {}), nil)
	star.Attach("b", Symmetric(units.Mbps(10), 0, 0), HandlerFunc(func(*Frame) {}), nil)
	pa.Send("b", 512, "x")
	clock.Run()
	if all, held := heldOf(t, star.pool.Objects); all != 1 || held != 0 {
		t.Fatalf("pool holds %d of %d frames after delivery, want 0 of 1", held, all)
	}
	// Unknown destinations recycle too.
	pa.Send("ghost", 512, "y")
	clock.Run()
	if all, held := heldOf(t, star.pool.Objects); all != 1 || held != 0 {
		t.Fatalf("pool holds %d of %d frames after unknown-dst drop, want 0 of 1", held, all)
	}
	if f := star.pool.Get(); *f != (Frame{}) {
		t.Fatalf("recycled frame kept %+v", *f)
	}
}

// TestFramePoolReclaimsRingBuffers pins that a link's rings grow into
// buffers from its frame pool's store, and that Reset reclaims them from
// a discarded link stopped with frames queued and in flight: a fresh
// link on the same store, under the same burst, allocates no ring
// buffer.
func TestFramePoolReclaimsRingBuffers(t *testing.T) {
	fp := NewFramePool()
	burst := func() {
		clock := sim.NewClock()
		link := NewLink("ring", clock, LinkConfig{Rate: units.Mbps(8), Delay: 10 * time.Millisecond}, &countSink{})
		link.UsePool(fp, true)
		for i := 0; i < 100; i++ {
			f := fp.Get()
			f.Src, f.Dst, f.Size, f.Priority = "a", "b", 512, i%10 == 0
			link.Send(f)
		}
		// Stop mid-flight: frames stay queued and propagating.
		clock.RunUntil(sim.Time(5 * time.Millisecond))
		if link.queueLen() == 0 || link.inflight.len() == 0 {
			t.Fatalf("burst left %d queued, %d in flight; want both nonzero", link.queueLen(), link.inflight.len())
		}
	}
	burst()
	grown, _ := heldOf(t, fp.Rings)
	if grown == 0 {
		t.Fatal("the rings took no buffer from the pool")
	}
	fp.Objects.Reset()
	fp.Rings.Reset()
	if all, held := heldOf(t, fp.Rings); held != 0 {
		t.Fatalf("Reset left %d of %d ring buffers held", held, all)
	}
	burst()
	if all, _ := heldOf(t, fp.Rings); all != grown {
		t.Fatalf("a fresh link after Reset allocated %d more ring buffers", all-grown)
	}
}

// pinCycles is how often a zero-alloc pin runs its cycle: the test's
// warm-up, AllocsPerRun's own warm-up, and the 100 measured runs.
const pinCycles = 1 + 1 + 100

// countSink counts deliveries without retaining or allocating.
type countSink struct{ cells, trains int }

func (s *countSink) Deliver(*Frame) { s.cells++ }
func (s *countSink) DeliverTrain(fs []*Frame) {
	s.cells += len(fs)
	s.trains++
}

// TestLinkTransitZeroAlloc pins the steady-state contract of the one
// link path: enqueue, serialize, propagate, deliver and recycle through
// a pooled link allocates nothing — the rings, the pre-bound stage
// callbacks, the train and batch scratch, the clock's event free list
// and the frame pool all reach their working set once. A
// burst of one is the per-frame pipeline; a burst of eight on a
// TrainSize-8 link departs as one singleton train plus one coalesced
// train delivered in a single batched call.
func TestLinkTransitZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name             string
		trainSize, burst int
	}{
		{"frame", 0, 1},
		{"train", 8, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clock := sim.NewClock()
			dst := &countSink{}
			link := NewLink("pin", clock, LinkConfig{
				Rate: units.Mbps(100), Delay: time.Millisecond, TrainSize: tc.trainSize,
			}, dst)
			pool := NewFramePool()
			link.UsePool(pool, true)
			cycle := func() {
				for i := 0; i < tc.burst; i++ {
					f := pool.Get()
					f.Src, f.Dst, f.Size = "a", "b", 512
					link.Send(f)
				}
				clock.Run()
			}
			cycle() // grow every ring, scratch slice and free list
			if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
				t.Fatalf("steady-state transit allocates %.1f per burst of %d", avg, tc.burst)
			}
			if want := pinCycles * tc.burst; dst.cells != want {
				t.Fatalf("delivered %d of %d frames", dst.cells, want)
			}
			if tc.trainSize > 1 && dst.trains == 0 {
				t.Fatal("no batched delivery: trains never formed")
			}
		})
	}
}

func TestDropReasonString(t *testing.T) {
	for r, want := range map[DropReason]string{
		dropTail:      "tail-drop",
		dropLoss:      "random-loss",
		dropSched:     "sched-drop",
		dropDown:      "down-drop",
		DropReason(9): "DropReason(9)",
	} {
		if got := r.String(); got != want {
			t.Errorf("DropReason(%d).String() = %q, want %q", int(r), got, want)
		}
	}
}

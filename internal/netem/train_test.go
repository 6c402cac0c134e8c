package netem

import (
	"testing"
	"time"

	"circuitstart/internal/sim"
	"circuitstart/internal/units"
)

// trainSink records deliveries with their batch boundaries: Deliver
// appends a singleton batch, DeliverTrain a whole one. Frames are
// snapshotted — trained terminal links recycle them on return.
type trainSink struct {
	clock   *sim.Clock
	batches [][]Frame
	times   []sim.Time
}

func (s *trainSink) Deliver(f *Frame) {
	s.batches = append(s.batches, []Frame{*f})
	s.times = append(s.times, s.clock.Now())
}

func (s *trainSink) DeliverTrain(fs []*Frame) {
	batch := make([]Frame, len(fs))
	for i, f := range fs {
		batch[i] = *f
	}
	s.batches = append(s.batches, batch)
	s.times = append(s.times, s.clock.Now())
}

func (s *trainSink) payloads() []int {
	var out []int
	for _, b := range s.batches {
		for _, f := range b {
			out = append(out, f.Payload.(int))
		}
	}
	return out
}

func newTrainLink(t *testing.T, cfg LinkConfig) (*sim.Clock, *Link, *trainSink) {
	t.Helper()
	clock := sim.NewClock()
	dst := &trainSink{clock: clock}
	return clock, NewLink("train", clock, cfg, dst), dst
}

func TestTrainFormsFromBacklogAndDeliversBatch(t *testing.T) {
	// A control frame occupies the serializer while four data frames
	// queue behind it; when it completes, the backlog forms one train
	// that serializes over its summed bytes and arrives as one batch.
	// The data frames must NOT stretch into the control train: trains
	// never mix sources.
	clock, link, dst := newTrainLink(t, LinkConfig{
		Rate: units.Mbps(1), Delay: time.Millisecond, TrainSize: 4,
	})
	link.Send(&Frame{Src: "a", Dst: "b", Size: 500, Priority: true, Payload: -1})
	for i := 0; i < 4; i++ {
		link.Send(&Frame{Src: "a", Dst: "b", Size: 500, Payload: i})
	}
	clock.Run()
	if len(dst.batches) != 2 {
		t.Fatalf("got %d deliveries, want 2 (control, then one data train)", len(dst.batches))
	}
	if len(dst.batches[0]) != 1 || !dst.batches[0][0].Priority {
		t.Fatalf("first delivery = %v, want the lone control frame", dst.batches[0])
	}
	if len(dst.batches[1]) != 4 {
		t.Fatalf("data train carried %d frames, want 4", len(dst.batches[1]))
	}
	for i, f := range dst.batches[1] {
		if f.Payload.(int) != i {
			t.Fatalf("train member %d carries payload %v: order violated", i, f.Payload)
		}
	}
	// 500 B at 1 Mbit/s = 4 ms. Control: 4 ms + 1 ms delay = 5 ms.
	// Data train: forms at 4 ms, serializes 4·4 ms, arrives at 21 ms.
	if want := sim.Time(5 * time.Millisecond); dst.times[0] != want {
		t.Errorf("control delivered at %v, want %v", dst.times[0], want)
	}
	if want := sim.Time(21 * time.Millisecond); dst.times[1] != want {
		t.Errorf("data train delivered at %v, want %v", dst.times[1], want)
	}
	st := link.Stats()
	if st.CellsDelivered != 5 || st.TrainsDelivered != 2 {
		t.Errorf("CellsDelivered=%d TrainsDelivered=%d, want 5/2", st.CellsDelivered, st.TrainsDelivered)
	}
	if st.TrainStretched != 0 {
		t.Errorf("TrainStretched = %d, want 0 (backlog formed at once)", st.TrainStretched)
	}
	if got := st.MeanTrainLen(); got != 2.5 {
		t.Errorf("MeanTrainLen = %v, want 2.5", got)
	}
}

func TestTrainStretchingCoalescesSmoothArrivals(t *testing.T) {
	// Arrivals slightly faster than the service rate: every frame finds
	// the serializer busy with a train that has room, so it joins
	// instead of forming a singleton behind it. Without stretching this
	// pattern degenerates to mean train length ≈ 1 — each arrival waits
	// a full cycle and forms its own train.
	clock, link, dst := newTrainLink(t, LinkConfig{
		Rate: units.Mbps(1), Delay: time.Millisecond, TrainSize: 8,
	})
	const n = 32
	for i := 0; i < n; i++ {
		i := i
		clock.At(sim.Time(i)*sim.Time(3*time.Millisecond), func() {
			link.Send(&Frame{Src: "a", Dst: "b", Size: 500, Payload: i})
		})
	}
	clock.Run()
	got := dst.payloads()
	if len(got) != n {
		t.Fatalf("delivered %d frames, want %d", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("delivery %d carries payload %d: stretching reordered frames", i, v)
		}
	}
	for _, b := range dst.batches {
		if len(b) > 8 {
			t.Fatalf("train of %d frames exceeds TrainSize 8", len(b))
		}
	}
	st := link.Stats()
	if st.TrainStretched == 0 {
		t.Error("TrainStretched = 0: no frame ever joined mid-serialization")
	}
	if mean := st.MeanTrainLen(); mean < 2 {
		t.Errorf("MeanTrainLen = %.2f: smooth arrivals did not coalesce", mean)
	}
}

func TestTrainStretchingNeverMixesSources(t *testing.T) {
	// A control frame arriving while a data train serializes must not
	// join it (and vice versa — see the formation test): it waits and
	// wins the next formation by priority.
	clock, link, dst := newTrainLink(t, LinkConfig{
		Rate: units.Mbps(1), Delay: 0, TrainSize: 4,
	})
	link.Send(&Frame{Src: "a", Dst: "b", Size: 500, Payload: 0})
	link.Send(&Frame{Src: "a", Dst: "b", Size: 64, Priority: true, Payload: -1})
	link.Send(&Frame{Src: "a", Dst: "b", Size: 500, Payload: 1})
	clock.Run()
	if len(dst.batches) != 2 {
		t.Fatalf("got %d deliveries, want 2", len(dst.batches))
	}
	first := dst.batches[0]
	if len(first) != 2 || first[0].Priority || first[1].Priority {
		t.Fatalf("first train = %v, want the two data frames", first)
	}
	if !dst.batches[1][0].Priority {
		t.Fatal("control frame did not follow in its own train")
	}
	if st := link.Stats(); st.TrainStretched != 1 {
		t.Errorf("TrainStretched = %d, want 1 (only the second data frame joined)", st.TrainStretched)
	}
}

func TestTrainMidTrainLossParityWithUntrained(t *testing.T) {
	// The loss process is per-cell and consumes RNG draws in frame
	// order, so a trained link and an untrained one fed the same frame
	// sequence from identically seeded RNGs lose exactly the same
	// frames — a mid-train member can die while its neighbors survive,
	// and coalescing changes timing but never the loss pattern.
	run := func(trainSize int) (LinkStats, []int) {
		clock := sim.NewClock()
		dst := &trainSink{clock: clock}
		link := NewLink("lossy", clock, LinkConfig{
			Rate: units.Mbps(10), Delay: time.Millisecond,
			LossProb: 0.3, RNG: sim.NewRNG(7, "trainloss"),
			TrainSize: trainSize,
		}, dst)
		const n = 40
		for i := 0; i < n; i++ {
			link.Send(&Frame{Src: "a", Dst: "b", Size: 500, Payload: i})
		}
		clock.Run()
		return link.Stats(), dst.payloads()
	}
	trainedStats, trainedGot := run(8)
	plainStats, plainGot := run(0)

	if trainedStats.RandomLoss == 0 {
		t.Fatal("no losses at p=0.3 over 40 frames: test is vacuous")
	}
	if trainedStats.RandomLoss != plainStats.RandomLoss {
		t.Errorf("trained lost %d, untrained lost %d: RNG draw sequences diverged",
			trainedStats.RandomLoss, plainStats.RandomLoss)
	}
	if len(trainedGot) != len(plainGot) {
		t.Fatalf("trained delivered %d, untrained %d", len(trainedGot), len(plainGot))
	}
	for i := range trainedGot {
		if trainedGot[i] != plainGot[i] {
			t.Fatalf("survivor %d: trained payload %d vs untrained %d", i, trainedGot[i], plainGot[i])
		}
	}
	if got := trainedStats.CellsDelivered + trainedStats.RandomLoss; got != 40 {
		t.Errorf("delivered %d + lost %d != 40 sent", trainedStats.CellsDelivered, trainedStats.RandomLoss)
	}
}

func TestTrainSetRateMidTrainAppliesNextTrain(t *testing.T) {
	// A rate change while a train occupies the serializer affects
	// neither the train's existing members nor frames that stretch into
	// it afterwards — every member serializes at the formation-time
	// rate; the next train picks up the new one. This is the batched
	// analogue of the per-frame SetRate rule.
	clock, link, dst := newTrainLink(t, LinkConfig{
		Rate: units.Mbps(1), Delay: 0, TrainSize: 4,
	})
	// 500 B at 1 Mbit/s = 4 ms; at 500 kbit/s = 8 ms.
	link.Send(&Frame{Src: "a", Dst: "b", Size: 500, Payload: 0}) // train forms, done 4 ms
	link.Send(&Frame{Src: "a", Dst: "b", Size: 500, Payload: 1}) // stretches, done 8 ms
	clock.After(time.Millisecond, func() { link.SetRate(units.Kbps(500)) })
	clock.After(2*time.Millisecond, func() {
		// Joins the live train: stretched at the formation rate, 12 ms.
		link.Send(&Frame{Src: "a", Dst: "b", Size: 500, Payload: 2})
	})
	clock.After(13*time.Millisecond, func() {
		// Link idle again: a fresh train at the new rate, done 21 ms.
		link.Send(&Frame{Src: "a", Dst: "b", Size: 500, Payload: 3})
	})
	clock.Run()
	if len(dst.batches) != 2 {
		t.Fatalf("got %d deliveries, want 2", len(dst.batches))
	}
	if len(dst.batches[0]) != 3 {
		t.Fatalf("first train carried %d frames, want 3", len(dst.batches[0]))
	}
	if want := sim.Time(12 * time.Millisecond); dst.times[0] != want {
		t.Errorf("stretched train delivered at %v, want %v (formation rate)", dst.times[0], want)
	}
	if want := sim.Time(21 * time.Millisecond); dst.times[1] != want {
		t.Errorf("post-change frame delivered at %v, want %v (new rate)", dst.times[1], want)
	}
}

// peekFIFO is a minimal CircPeeker scheduler: FIFO order, but it
// exposes the head's circuit, so a trained link must end a train where
// the circuit changes — the scheduler's preemption point.
type peekFIFO struct{ q []*Frame }

func (s *peekFIFO) Push(f *Frame) bool { s.q = append(s.q, f); return true }
func (s *peekFIFO) Pop() *Frame {
	f := s.q[0]
	s.q = s.q[1:]
	return f
}
func (s *peekFIFO) Len() int { return len(s.q) }
func (s *peekFIFO) PeekCirc() (uint32, bool) {
	if len(s.q) == 0 {
		return 0, false
	}
	return s.q[0].Circ, true
}

func TestTrainSchedulerPreemptionSplitsTrains(t *testing.T) {
	// With a circuit-aware scheduler installed, a train never spans two
	// circuits — neither at formation nor by stretching. Three frames
	// of circuit 1 followed by two of circuit 2 must arrive as exactly
	// two trains, split at the circuit boundary, even though TrainSize
	// would have room for all five.
	clock, link, dst := newTrainLink(t, LinkConfig{
		Rate: units.Mbps(1), Delay: 0, TrainSize: 8,
	})
	link.SetScheduler(&peekFIFO{})
	for i := 0; i < 3; i++ {
		link.Send(&Frame{Src: "a", Dst: "b", Size: 500, Circ: 1, Payload: i})
	}
	for i := 3; i < 5; i++ {
		link.Send(&Frame{Src: "a", Dst: "b", Size: 500, Circ: 2, Payload: i})
	}
	clock.Run()
	if len(dst.batches) != 2 {
		t.Fatalf("got %d trains, want 2 (split at the circuit boundary)", len(dst.batches))
	}
	if len(dst.batches[0]) != 3 || len(dst.batches[1]) != 2 {
		t.Fatalf("train sizes %d/%d, want 3/2", len(dst.batches[0]), len(dst.batches[1]))
	}
	for _, f := range dst.batches[0] {
		if f.Circ != 1 {
			t.Fatalf("circuit-2 frame in the circuit-1 train")
		}
	}
	for _, f := range dst.batches[1] {
		if f.Circ != 2 {
			t.Fatalf("circuit-1 frame in the circuit-2 train")
		}
	}
	// The first send formed a singleton train; the next two circuit-1
	// frames stretched it; the circuit-2 frames were refused.
	if st := link.Stats(); st.TrainStretched != 2 {
		t.Errorf("TrainStretched = %d, want 2", st.TrainStretched)
	}
}

func TestTrainTerminalLinkRecyclesFrames(t *testing.T) {
	// Every frame of a delivered train must return to the pool on a
	// terminal link — batched delivery keeps the pooled hot path
	// allocation-free, so a leaked train member would regress it.
	clock := sim.NewClock()
	dst := &trainSink{clock: clock}
	link := NewLink("terminal", clock, LinkConfig{
		Rate: units.Mbps(1), Delay: time.Millisecond, TrainSize: 4,
	}, dst)
	pool := NewFramePool()
	link.UsePool(pool, true)
	const n = 6
	for i := 0; i < n; i++ {
		f := pool.Get()
		f.Src, f.Dst, f.Size, f.Priority, f.Circ, f.Payload = "a", "b", 500, false, 0, i
		link.Send(f)
	}
	clock.Run()
	if got := dst.payloads(); len(got) != n {
		t.Fatalf("delivered %d frames, want %d", len(got), n)
	}
	if all, held := heldOf(t, pool.Objects); all != n || held != 0 {
		t.Fatalf("pool holds %d of %d frames after delivery, want all %d free", held, all, n)
	}
}

func TestTrainSizeZeroAndOneIdentical(t *testing.T) {
	// TrainSize 0 and 1 both cap the train at one frame — the per-frame
	// pipeline: identical delivery instants, order, and stats. The
	// determinism fixture (golden scenario) rides on this equivalence.
	run := func(trainSize int) (LinkStats, []sim.Time, []int) {
		clock := sim.NewClock()
		dst := &trainSink{clock: clock}
		link := NewLink("id", clock, LinkConfig{
			Rate: units.Mbps(2), Delay: 3 * time.Millisecond, TrainSize: trainSize,
		}, dst)
		const n = 20
		for i := 0; i < n; i++ {
			i := i
			clock.At(sim.Time(i)*sim.Time(700*time.Microsecond), func() {
				link.Send(&Frame{Src: "a", Dst: "b", Size: 500, Payload: i})
			})
		}
		clock.Run()
		return link.Stats(), dst.times, dst.payloads()
	}
	s0, t0, p0 := run(0)
	s1, t1, p1 := run(1)
	if s0 != s1 {
		t.Errorf("stats differ: TrainSize 0 %+v vs TrainSize 1 %+v", s0, s1)
	}
	if len(t0) != len(t1) {
		t.Fatalf("delivery counts differ: %d vs %d", len(t0), len(t1))
	}
	for i := range t0 {
		if t0[i] != t1[i] || p0[i] != p1[i] {
			t.Fatalf("delivery %d: (%v, %d) vs (%v, %d)", i, t0[i], p0[i], t1[i], p1[i])
		}
	}
	if s0.MeanTrainLen() != 1 {
		t.Errorf("untrained MeanTrainLen = %v, want exactly 1", s0.MeanTrainLen())
	}
}

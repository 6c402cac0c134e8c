package transport

import (
	"math/rand"
	"testing"
	"testing/quick"

	"circuitstart/internal/cell"
	"circuitstart/internal/sim"
)

// TestReceiverDeliversExactlyOnceInOrder: for any arrival order of a
// set of sequences (with arbitrary duplication), the receiver delivers
// each cell exactly once, in sequence order.
func TestReceiverDeliversExactlyOnceInOrder(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		rng := rand.New(rand.NewSource(seed))

		var delivered []uint64
		r := NewReceiver(1,
			func(Segment) bool { return true },
			func(c *cell.Cell) {
				seq := uint64(c.Payload[0]) | uint64(c.Payload[1])<<8
				delivered = append(delivered, seq)
			})

		// Arrival order: a shuffle of 0..n-1 plus ~30% duplicates.
		order := rng.Perm(n)
		arrivals := make([]int, 0, n*2)
		for _, seq := range order {
			arrivals = append(arrivals, seq)
			if rng.Intn(3) == 0 {
				arrivals = append(arrivals, rng.Intn(n))
			}
		}
		for _, seq := range arrivals {
			c := &cell.Cell{}
			c.Payload[0] = byte(seq)
			c.Payload[1] = byte(seq >> 8)
			r.HandleData(uint64(seq), c)
		}

		if len(delivered) != n {
			return false
		}
		for i, seq := range delivered {
			if seq != uint64(i) {
				return false
			}
		}
		return r.Expected() == uint64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestReceiverForwardedNeverExceedsDelivered: NotifyForwarded beyond
// the delivered count must panic (the invariant is load-bearing for
// feedback semantics), and within it must be monotone.
func TestReceiverForwardedNeverExceedsDelivered(t *testing.T) {
	r := NewReceiver(1, func(Segment) bool { return true }, func(*cell.Cell) {})
	c := &cell.Cell{}
	r.HandleData(0, c)
	r.HandleData(1, c)
	r.NotifyForwarded(1)
	r.NotifyForwarded(1) // idempotent
	r.NotifyForwarded(2)
	defer func() {
		if recover() == nil {
			t.Fatal("over-reporting forwarded did not panic")
		}
	}()
	r.NotifyForwarded(3)
}

// TestSenderCountInvariants: driving a sender with any interleaving of
// enqueues and (valid) cumulative ack/feedback reports preserves
// acked ≤ sent, feedback ≤ sent, and Idle ⇔ fully drained.
func TestSenderCountInvariants(t *testing.T) {
	f := func(seed int64, opsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		clock := sim.NewClock()
		s := NewSender(Config{
			Clock: clock,
			Send:  func(Segment) bool { return true },
		})
		ops := int(opsRaw%60) + 5
		for i := 0; i < ops; i++ {
			st := s.Stats()
			sent := st.Transmitted
			switch rng.Intn(3) {
			case 0:
				s.Enqueue(&cell.Cell{})
			case 1:
				if sent > st.Acked {
					s.HandleAck(st.Acked + 1 + uint64(rng.Int63n(int64(sent-st.Acked))))
				}
			case 2:
				st = s.Stats()
				// Feedback only for cells the peer can have forwarded,
				// i.e. cells it received (acked here, as a conservative
				// stand-in for the real pipeline).
				if st.Acked > st.Feedback {
					s.HandleFeedback(st.Feedback + 1 + uint64(rng.Int63n(int64(st.Acked-st.Feedback))))
				}
			}
			// Let timers fire occasionally.
			if rng.Intn(5) == 0 {
				clock.RunUntil(clock.Now() + sim.Millisecond)
			}

			st = s.Stats()
			if st.Acked > st.Transmitted+st.Retransmitted || st.Feedback > st.Transmitted+st.Retransmitted {
				return false
			}
			if st.Feedback > st.Acked {
				return false
			}
		}
		st := s.Stats()
		drained := s.QueueLen() == 0 && st.Acked == st.Transmitted && st.Feedback == st.Transmitted
		return idle(s) == drained
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSenderWindowNeverNegative: the window stays within
// [MinCwnd, MaxCwnd] under any drive pattern.
func TestSenderWindowBounds(t *testing.T) {
	f := func(seed int64, opsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		clock := sim.NewClock()
		violated := false
		var s *Sender
		s = NewSender(Config{
			Clock: clock,
			Send:  func(Segment) bool { return rng.Intn(10) > 0 }, // 10% local rejects
			OnCwnd: func(cwnd float64, _ Phase) {
				if s == nil {
					return // construction-time notification
				}
				if cwnd < s.cfg.MinCwnd-1e-9 || cwnd > s.cfg.MaxCwnd+1e-9 {
					violated = true
				}
			},
		})
		for i := 0; i < int(opsRaw%80)+10; i++ {
			st := s.Stats()
			switch rng.Intn(3) {
			case 0:
				s.Enqueue(&cell.Cell{})
			case 1:
				if st.Transmitted > st.Acked {
					s.HandleAck(st.Acked + 1)
				}
			case 2:
				if st.Acked > st.Feedback {
					s.HandleFeedback(st.Feedback + 1)
				}
			}
			clock.RunUntil(clock.Now() + sim.Time(rng.Int63n(int64(5*sim.Millisecond))))
		}
		return !violated
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestSenderRejectsInvalidReports: cumulative counts beyond what was
// transmitted must panic — silently accepting them would corrupt the
// window accounting.
func TestSenderRejectsInvalidReports(t *testing.T) {
	mk := func() *Sender {
		return NewSender(Config{Clock: sim.NewClock(), Send: func(Segment) bool { return true }})
	}
	t.Run("ack beyond sent", func(t *testing.T) {
		s := mk()
		s.Enqueue(&cell.Cell{})
		defer func() {
			if recover() == nil {
				t.Fatal("no panic")
			}
		}()
		s.HandleAck(5)
	})
	t.Run("feedback beyond sent", func(t *testing.T) {
		s := mk()
		s.Enqueue(&cell.Cell{})
		defer func() {
			if recover() == nil {
				t.Fatal("no panic")
			}
		}()
		s.HandleFeedback(5)
	})
}

// TestPolicyByNameRoundTrip: every policy the registry returns reports
// the name it was requested under.
func TestPolicyByNameRoundTrip(t *testing.T) {
	for _, name := range []string{"circuitstart", "slowstart", "circuitstart-halve", "slowstart-compensated", "backtap", "fixed"} {
		p, err := PolicyByName(name, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if name != "fixed" && name != "backtap" && p.Name() != name {
			t.Fatalf("PolicyByName(%q).Name() = %q", name, p.Name())
		}
	}
	if _, err := PolicyByName("nope", 0); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

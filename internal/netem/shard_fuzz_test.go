package netem

import (
	"sort"
	"testing"

	"circuitstart/internal/sim"
)

// fuzzDelivery is one trunk delivery of a generated batch: the lane key
// fields its egress link would stamp, and its index in the batch.
type fuzzDelivery struct {
	at, origin sim.Time
	lane       uint16
	n          uint64
	id         int
}

func (d fuzzDelivery) key() sim.Key { return sim.LaneKey(d.at, d.origin, d.lane, d.n) }

// fuzzDeliveries renders a fuzz input into a deterministic batch with
// deliberate collisions: instants are drawn from a tiny range so many
// deliveries tie on (at, origin) and the order must fall through to
// (lane, n). Per-lane sequences are assigned in generation order,
// mirroring how a link stamps them.
func fuzzDeliveries(seed int64, n int, lanes int) []fuzzDelivery {
	rng := sim.NewRNG(seed, "fuzz-merge")
	seqs := make([]uint64, lanes+1)
	out := make([]fuzzDelivery, n)
	for i := range out {
		lane := uint16(1 + rng.Int63n(int64(lanes)))
		origin := sim.Time(rng.Int63n(8)) // tiny range: force ties
		seqs[lane]++
		out[i] = fuzzDelivery{
			at:     origin + 1 + sim.Time(rng.Int63n(4)), // a cut trunk has positive delay
			origin: origin,
			lane:   lane,
			n:      seqs[lane],
			id:     i,
		}
	}
	return out
}

// FuzzShardMergeOrder pins the property the whole determinism contract
// leans on: the order in which trunk deliveries fire is a function of
// their lane keys alone. The same batch is put on three clocks the way
// three different plans would — every trunk cut and admitted in
// generation order, every trunk cut and admitted in a shuffled order,
// and a mixed plan whose odd lanes are local (each delivery scheduled
// from an event at its origin instant, as an uncut link does) while the
// even lanes are imported up front — and all three must fire in the
// canonical (at, origin, lane, n) order.
func FuzzShardMergeOrder(f *testing.F) {
	f.Add(int64(1), uint8(16), uint8(3), int64(2))
	f.Add(int64(42), uint8(64), uint8(1), int64(7))
	f.Add(int64(-9), uint8(2), uint8(8), int64(0))
	f.Fuzz(func(t *testing.T, seed int64, n uint8, lanes uint8, shuffleSeed int64) {
		batch := fuzzDeliveries(seed, int(n), int(lanes)%8+1)

		want := append([]fuzzDelivery(nil), batch...)
		sort.Slice(want, func(i, j int) bool {
			a, b := want[i], want[j]
			switch {
			case a.at != b.at:
				return a.at < b.at
			case a.origin != b.origin:
				return a.origin < b.origin
			case a.lane != b.lane:
				return a.lane < b.lane
			}
			return a.n < b.n
		})

		shuffled := append([]fuzzDelivery(nil), batch...)
		shuf := sim.NewRNG(shuffleSeed, "fuzz-merge-shuffle")
		for i := len(shuffled) - 1; i > 0; i-- {
			j := int(shuf.Int63n(int64(i + 1)))
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		}

		run := func(name string, admit []fuzzDelivery, local func(fuzzDelivery) bool) {
			clock := sim.NewClock()
			var fired []int
			for _, d := range admit {
				d := d
				fire := func() { fired = append(fired, d.id) }
				if local(d) {
					clock.At(d.origin, func() { clock.AtKey(d.key(), fire) })
				} else {
					clock.AtKey(d.key(), fire)
				}
			}
			clock.Run()
			if len(fired) != len(want) {
				t.Fatalf("%s: %d of %d deliveries fired", name, len(fired), len(want))
			}
			for i, id := range fired {
				if id != want[i].id {
					t.Fatalf("%s: delivery %d fired was %+v, canonical order has %+v", name, i, batch[id], want[i])
				}
			}
		}
		none := func(fuzzDelivery) bool { return false }
		run("all cut", batch, none)
		run("all cut, shuffled admission", shuffled, none)
		run("mixed plan", shuffled, func(d fuzzDelivery) bool { return d.lane%2 == 1 })
	})
}

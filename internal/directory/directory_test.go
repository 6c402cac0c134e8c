package directory

import (
	"errors"
	"testing"
	"time"

	"circuitstart/internal/netem"
	"circuitstart/internal/sim"
	"circuitstart/internal/units"
)

func allFlags() Flag { return FlagGuard | FlagExit | FlagMiddle }

func testConsensus(t *testing.T) *Consensus {
	t.Helper()
	c, err := NewConsensus([]Descriptor{
		{ID: "g1", Bandwidth: units.Mbps(100), Latency: 5 * time.Millisecond, Flags: FlagGuard | FlagMiddle},
		{ID: "g2", Bandwidth: units.Mbps(50), Latency: 5 * time.Millisecond, Flags: FlagGuard | FlagMiddle},
		{ID: "m1", Bandwidth: units.Mbps(80), Latency: 5 * time.Millisecond, Flags: FlagMiddle},
		{ID: "m2", Bandwidth: units.Mbps(20), Latency: 5 * time.Millisecond, Flags: FlagMiddle},
		{ID: "e1", Bandwidth: units.Mbps(60), Latency: 5 * time.Millisecond, Flags: FlagExit | FlagMiddle},
		{ID: "e2", Bandwidth: units.Mbps(40), Latency: 5 * time.Millisecond, Flags: FlagExit},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConsensusBasics(t *testing.T) {
	c := testConsensus(t)
	if c.Len() != 6 {
		t.Errorf("Len = %d", c.Len())
	}
	d, ok := c.Relay("m1")
	if !ok || d.Bandwidth != units.Mbps(80) {
		t.Errorf("Relay(m1) = %+v, %v", d, ok)
	}
	if _, ok := c.Relay("nope"); ok {
		t.Error("found nonexistent relay")
	}
	if got := c.TotalBandwidth(); got != units.Mbps(350) {
		t.Errorf("TotalBandwidth = %v", got)
	}
	rs := c.Relays()
	for i := 1; i < len(rs); i++ {
		if rs[i-1].ID >= rs[i].ID {
			t.Fatal("Relays() not sorted")
		}
	}
}

func TestNewConsensusRejectsDuplicates(t *testing.T) {
	_, err := NewConsensus([]Descriptor{
		{ID: "a", Bandwidth: units.Mbps(1), Flags: allFlags()},
		{ID: "a", Bandwidth: units.Mbps(2), Flags: allFlags()},
	})
	if !errors.Is(err, ErrDuplicateRelay) {
		t.Errorf("err = %v, want ErrDuplicateRelay", err)
	}
}

func TestNewConsensusRejectsZeroBandwidth(t *testing.T) {
	_, err := NewConsensus([]Descriptor{{ID: "a", Bandwidth: 0, Flags: allFlags()}})
	if err == nil {
		t.Error("zero bandwidth accepted")
	}
}

func TestPickWeightedRespectsFlags(t *testing.T) {
	c := testConsensus(t)
	rng := sim.NewRNG(1, "pick")
	for i := 0; i < 200; i++ {
		d, err := c.PickWeighted(rng, FlagExit, nil)
		if err != nil {
			t.Fatal(err)
		}
		if d.ID != "e1" && d.ID != "e2" {
			t.Fatalf("picked non-exit %q for exit position", d.ID)
		}
	}
}

func TestPickWeightedBandwidthBias(t *testing.T) {
	c := testConsensus(t)
	rng := sim.NewRNG(2, "bias")
	counts := map[netem.NodeID]int{}
	const n = 5000
	for i := 0; i < n; i++ {
		d, err := c.PickWeighted(rng, FlagGuard, nil)
		if err != nil {
			t.Fatal(err)
		}
		counts[d.ID]++
	}
	// g1 has 2x the bandwidth of g2 → expect ~2:1 selection ratio.
	ratio := float64(counts["g1"]) / float64(counts["g2"])
	if ratio < 1.7 || ratio > 2.3 {
		t.Errorf("g1:g2 selection ratio = %.2f, want ≈2", ratio)
	}
}

func TestPickWeightedExclusion(t *testing.T) {
	c := testConsensus(t)
	rng := sim.NewRNG(3, "excl")
	excl := map[netem.NodeID]bool{"e1": true}
	for i := 0; i < 100; i++ {
		d, err := c.PickWeighted(rng, FlagExit, excl)
		if err != nil {
			t.Fatal(err)
		}
		if d.ID == "e1" {
			t.Fatal("picked excluded relay")
		}
	}
	excl["e2"] = true
	if _, err := c.PickWeighted(rng, FlagExit, excl); err != ErrNoCandidates {
		t.Errorf("err = %v, want ErrNoCandidates", err)
	}
}

func TestSelectPathStructure(t *testing.T) {
	c := testConsensus(t)
	rng := sim.NewRNG(4, "path")
	for i := 0; i < 100; i++ {
		path, err := c.SelectPath(rng, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(path) != 3 {
			t.Fatalf("path length %d", len(path))
		}
		if !path[0].Flags.Has(FlagGuard) {
			t.Errorf("first hop %q lacks Guard flag", path[0].ID)
		}
		if !path[1].Flags.Has(FlagMiddle) {
			t.Errorf("middle hop %q lacks Middle flag", path[1].ID)
		}
		if !path[2].Flags.Has(FlagExit) {
			t.Errorf("exit hop %q lacks Exit flag", path[2].ID)
		}
		seen := map[netem.NodeID]bool{}
		for _, d := range path {
			if seen[d.ID] {
				t.Fatalf("relay %q appears twice in path", d.ID)
			}
			seen[d.ID] = true
		}
	}
}

func TestSelectPathSingleHop(t *testing.T) {
	c := testConsensus(t)
	rng := sim.NewRNG(5, "single")
	path, err := c.SelectPath(rng, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !path[0].Flags.Has(FlagExit) {
		t.Errorf("single hop %q must be an exit", path[0].ID)
	}
}

func TestSelectPathErrors(t *testing.T) {
	c := testConsensus(t)
	rng := sim.NewRNG(6, "errs")
	if _, err := c.SelectPath(rng, 0); err == nil {
		t.Error("zero-hop path accepted")
	}
	if _, err := c.SelectPath(rng, 7); !errors.Is(err, ErrPathTooLong) {
		t.Errorf("err = %v, want ErrPathTooLong", err)
	}
}

func TestSelectPathDeterministicWithSeed(t *testing.T) {
	c := testConsensus(t)
	p1, err := c.SelectPath(sim.NewRNG(7, "det"), 3)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c.SelectPath(sim.NewRNG(7, "det"), 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p1 {
		if p1[i].ID != p2[i].ID {
			t.Fatal("same seed produced different paths")
		}
	}
}

func TestFlagString(t *testing.T) {
	cases := map[string]string{
		FlagGuard.String():              "Guard",
		FlagExit.String():               "Exit",
		(FlagGuard | FlagExit).String(): "Guard|Exit",
		Flag(0).String():                "none",
		allFlags().String():             "Guard|Exit|Middle",
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("Flag.String() = %q, want %q", got, want)
		}
	}
}

// pickByCopy is PickWeighted as it was before it stopped allocating:
// copy the eligible descriptors, then spend one draw over their weight.
// It is the reference the differential test holds the two-pass walk to.
func pickByCopy(c *Consensus, rng *sim.RNG, flag Flag, excl map[netem.NodeID]bool) (Descriptor, error) {
	var total int64
	var candidates []Descriptor
	for _, d := range c.relays {
		if !d.Flags.Has(flag) || excl[d.ID] {
			continue
		}
		candidates = append(candidates, d)
		total += d.Bandwidth.BitsPerSecond()
	}
	if len(candidates) == 0 {
		return Descriptor{}, ErrNoCandidates
	}
	x := rng.Int63n(total)
	for _, d := range candidates {
		x -= d.Bandwidth.BitsPerSecond()
		if x < 0 {
			return d, nil
		}
	}
	return candidates[len(candidates)-1], nil
}

// TestPickWeightedMatchesCopyReference holds PickWeighted to the
// copy-based reference over seeded consensuses, every flag and growing
// exclusion sets: both pick the same descriptor sequence from twin RNG
// streams, so every draw — and the RNG state after it — is unchanged.
func TestPickWeightedMatchesCopyReference(t *testing.T) {
	flags := []Flag{FlagGuard, FlagExit, FlagMiddle, FlagGuard | FlagExit}
	for seed := int64(1); seed <= 20; seed++ {
		gen := sim.NewRNG(seed, "consensus")
		n := 1 + gen.Intn(40)
		ds := make([]Descriptor, n)
		for i := range ds {
			ds[i] = Descriptor{
				ID:        netem.NodeID(string(rune('a'+i%26)) + string(rune('A'+i/26))),
				Bandwidth: units.Mbps(float64(1 + gen.Intn(200))),
				Flags:     Flag(1 + gen.Intn(7)),
			}
		}
		c, err := NewConsensus(ds)
		if err != nil {
			t.Fatal(err)
		}
		got, want := sim.NewRNG(seed, "pick"), sim.NewRNG(seed, "pick")
		excl := map[netem.NodeID]bool{}
		for i := 0; i < 200; i++ {
			flag := flags[i%len(flags)]
			d, err := c.PickWeighted(got, flag, excl)
			rd, rerr := pickByCopy(c, want, flag, excl)
			if d != rd || err != rerr {
				t.Fatalf("seed %d pick %d (%v, %d excluded): got %+v, %v; reference %+v, %v",
					seed, i, flag, len(excl), d, err, rd, rerr)
			}
			if i%7 == 0 {
				excl[ds[gen.Intn(n)].ID] = true
			}
			if i%50 == 49 {
				clear(excl)
			}
		}
		if got.Int63() != want.Int63() {
			t.Fatalf("seed %d: the RNG streams diverged", seed)
		}
	}
}

func TestPickWeightedZeroAlloc(t *testing.T) {
	c := testConsensus(t)
	rng := sim.NewRNG(5, "alloc")
	excl := map[netem.NodeID]bool{"g1": true}
	if a := testing.AllocsPerRun(100, func() {
		if _, err := c.PickWeighted(rng, FlagMiddle, excl); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Fatalf("PickWeighted allocates %.1f times per pick", a)
	}
}

package workload

import (
	"fmt"
	"testing"
	"time"

	"circuitstart/internal/directory"
	"circuitstart/internal/netem"
	"circuitstart/internal/sim"
	"circuitstart/internal/units"
)

func TestGenerateRelaysValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*RelayParams)
	}{
		{"zero relays", func(p *RelayParams) { p.N = 0 }},
		{"zero bandwidth", func(p *RelayParams) { p.BandwidthMedian = 0 }},
		{"bad delays", func(p *RelayParams) { p.DelayMax = p.DelayMin - time.Millisecond }},
		{"bad fractions", func(p *RelayParams) { p.GuardFrac = 2 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := DefaultRelayParams(10)
			c.mut(&p)
			if _, err := GenerateRelays(1, p); err == nil {
				t.Fatal("invalid params accepted")
			}
		})
	}
}

func TestGenerateRelaysProperties(t *testing.T) {
	p := DefaultRelayParams(64)
	relays, err := GenerateRelays(7, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(relays) != 64 {
		t.Fatalf("len = %d", len(relays))
	}
	ids := make(map[string]bool)
	var guards, exits int
	for _, r := range relays {
		if ids[string(r.Desc.ID)] {
			t.Fatalf("duplicate relay ID %s", r.Desc.ID)
		}
		ids[string(r.Desc.ID)] = true
		if r.Desc.Bandwidth < p.MinBandwidth || r.Desc.Bandwidth > p.MaxBandwidth {
			t.Errorf("bandwidth %v outside clamp", r.Desc.Bandwidth)
		}
		if r.Desc.Latency < p.DelayMin || r.Desc.Latency >= p.DelayMax {
			t.Errorf("latency %v outside range", r.Desc.Latency)
		}
		if !r.Desc.Flags.Has(directory.FlagMiddle) {
			t.Error("relay without Middle flag")
		}
		if r.Desc.Flags.Has(directory.FlagGuard) {
			guards++
		}
		if r.Desc.Flags.Has(directory.FlagExit) {
			exits++
		}
		if r.Access.UpRate != r.Desc.Bandwidth || r.Access.Delay != r.Desc.Latency {
			t.Error("access config inconsistent with descriptor")
		}
	}
	if guards == 0 || exits == 0 {
		t.Fatalf("guards=%d exits=%d", guards, exits)
	}
	// Heterogeneity: the population must actually spread (the experiment
	// depends on varying bottlenecks).
	minBW, maxBW := relays[0].Desc.Bandwidth, relays[0].Desc.Bandwidth
	for _, r := range relays {
		if r.Desc.Bandwidth < minBW {
			minBW = r.Desc.Bandwidth
		}
		if r.Desc.Bandwidth > maxBW {
			maxBW = r.Desc.Bandwidth
		}
	}
	if float64(maxBW) < 2*float64(minBW) {
		t.Fatalf("population too homogeneous: [%v, %v]", minBW, maxBW)
	}
}

func TestGenerateRelaysDeterministic(t *testing.T) {
	a, _ := GenerateRelays(42, DefaultRelayParams(16))
	b, _ := GenerateRelays(42, DefaultRelayParams(16))
	for i := range a {
		if a[i].Desc != b[i].Desc {
			t.Fatalf("relay %d differs across identical seeds", i)
		}
	}
	c, _ := GenerateRelays(43, DefaultRelayParams(16))
	same := true
	for i := range a {
		if a[i].Desc != c[i].Desc {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical populations")
	}
}

func TestBuildValidation(t *testing.T) {
	base := DefaultScenario()
	cases := []struct {
		name string
		mut  func(*ScenarioParams)
	}{
		{"zero circuits", func(p *ScenarioParams) { p.Circuits = 0 }},
		{"zero hops", func(p *ScenarioParams) { p.HopsPerCircuit = 0 }},
		{"zero transfer", func(p *ScenarioParams) { p.TransferSize = 0 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := base
			c.mut(&p)
			if _, err := Build(1, p); err == nil {
				t.Fatal("invalid scenario accepted")
			}
		})
	}
}

func TestSmallScenarioRunsToCompletion(t *testing.T) {
	p := DefaultScenario()
	p.Relays = DefaultRelayParams(12)
	p.Circuits = 6
	p.TransferSize = 100 * units.Kilobyte
	sc, err := Build(5, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Circuits) != 6 {
		t.Fatalf("built %d circuits", len(sc.Circuits))
	}
	results := sc.Run(120 * sim.Second)
	for _, r := range results {
		if !r.Done {
			t.Errorf("circuit %d incomplete", r.Circuit)
			continue
		}
		if r.TTLB <= 0 {
			t.Errorf("circuit %d TTLB %v", r.Circuit, r.TTLB)
		}
	}
}

func TestScenarioDeterministic(t *testing.T) {
	run := func() []Result {
		p := DefaultScenario()
		p.Relays = DefaultRelayParams(10)
		p.Circuits = 4
		p.TransferSize = 50 * units.Kilobyte
		sc, err := Build(9, p)
		if err != nil {
			t.Fatal(err)
		}
		return sc.Run(120 * sim.Second)
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("result %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestScenarioPoliciesDiffer(t *testing.T) {
	// Same seed, different startup policy: the topology and paths are
	// identical, so any TTLB difference is attributable to the policy.
	run := func(policy string) []Result {
		p := DefaultScenario()
		p.Relays = DefaultRelayParams(10)
		p.Circuits = 4
		p.TransferSize = 200 * units.Kilobyte
		p.Transport.Policy = policy
		sc, err := Build(9, p)
		if err != nil {
			t.Fatal(err)
		}
		return sc.Run(300 * sim.Second)
	}
	cs := run("circuitstart")
	bt := run("backtap")
	differ := false
	for i := range cs {
		if !cs[i].Done || !bt[i].Done {
			t.Fatalf("circuit %d incomplete", i)
		}
		if cs[i].TTLB != bt[i].TTLB {
			differ = true
		}
	}
	if !differ {
		t.Fatal("policies produced identical TTLBs — policy not plumbed through")
	}
}

func TestDownloadScenarioCompletes(t *testing.T) {
	p := DefaultScenario()
	p.Relays = DefaultRelayParams(12)
	p.Circuits = 5
	p.TransferSize = 100 * units.Kilobyte
	p.Download = true
	sc, err := Build(21, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range sc.Run(300 * sim.Second) {
		if !r.Done {
			t.Errorf("download circuit %d incomplete", r.Circuit)
		}
	}
	// Bytes must have arrived at the clients, not the servers.
	for i, c := range sc.Circuits {
		if c.Source().Downloaded() != p.TransferSize {
			t.Errorf("circuit %d client downloaded %v", i, c.Source().Downloaded())
		}
		if c.Source().DownloadBadCells() != 0 {
			t.Errorf("circuit %d bad cells at client", i)
		}
	}
}

// TestForwardSoakCompletesEveryTransfer is the black-box companion of
// relay's TestRelayMiddleHopForwardsUnverifiedCell: bulk-shaped forward
// traffic (20 circuits × 2 MB on the batched link path) must deliver
// every byte within the horizon, and on a lossless fabric no relay may
// count a corrupt cell. The colliding ciphertext is far too rare for a
// soak this size to meet it reliably — the directed test constructs it
// — so this guards the forward direction as a whole: a lost cell
// anywhere shows up as an incomplete transfer, not as a hung run.
//
// The lossy variants drop 1 % of the frames on every access link, in
// both transfer directions. Origins build each cell from the pool the
// far end recycles into, mid-transfer, so a cell the consumer has
// already handed back can still sit in an upstream hop sender's
// retransmission ring (its ACK was the frame that got lost) and go out
// again carrying its new content under the old sequence number. The
// receiver must discard it by sequence alone: one cell read twice shows
// as a bad or corrupt cell, or as a transfer that never completes.
func TestForwardSoakCompletesEveryTransfer(t *testing.T) {
	if testing.Short() {
		t.Skip("soak: 3 seeds × 40 MB of simulated traffic, lossless and lossy")
	}
	for _, v := range []struct {
		name     string
		download bool
		loss     float64
	}{
		{"forward", false, 0},
		{"forward lossy", false, 0.01},
		{"download lossy", true, 0.01},
	} {
		for _, seed := range []int64{42, 7, 2018} {
			p := DefaultScenario()
			p.Circuits = 20
			p.TransferSize = 2 * units.Megabyte
			p.TrainSize = 8
			p.Download = v.download
			if v.loss > 0 {
				// Build's default client access, made lossy.
				p.ClientAccess = netem.Symmetric(units.Mbps(100), 5*time.Millisecond, p.Relays.QueueCap)
				p.ClientAccess.LossProb = v.loss
			}
			sc, err := Build(seed, p)
			if err != nil {
				t.Fatal(err)
			}
			relays := sc.Consensus.Relays()
			if v.loss > 0 {
				for _, d := range relays {
					port := sc.Network.Relay(d.ID).Port()
					for i, l := range []*netem.Link{port.Uplink(), port.Downlink()} {
						l.SetLossModel(&netem.GilbertElliott{LossGood: v.loss, LossBad: v.loss,
							RNG: sim.NewRNG(seed, fmt.Sprintf("soak-loss-%s-%d", d.ID, i))})
					}
				}
			}
			for _, r := range sc.Run(3600 * sim.Second) {
				if !r.Done {
					t.Errorf("%s, seed %d: circuit %d incomplete at the horizon", v.name, seed, r.Circuit)
				}
			}
			for _, d := range relays {
				if n := sc.Network.Relay(d.ID).Stats().Corrupt; n != 0 {
					t.Errorf("%s, seed %d: relay %s counted %d corrupt cells", v.name, seed, d.ID, n)
				}
			}
			var lost uint64
			for _, c := range sc.Circuits {
				if n := c.Sink().BadCells(); n != 0 {
					t.Errorf("%s, seed %d: sink counted %d bad cells", v.name, seed, n)
				}
				if n := c.Source().DownloadBadCells(); n != 0 {
					t.Errorf("%s, seed %d: client counted %d bad download cells", v.name, seed, n)
				}
				lost += c.Source().Sender().Stats().Retransmitted + c.Sink().BackwardSender().Stats().Retransmitted
			}
			if v.loss > 0 && lost == 0 {
				t.Errorf("%s, seed %d: no origin ever retransmitted; the loss is not reaching the data path", v.name, seed)
			}
		}
	}
}

// TestGenerateRelaysTinyPopulationsHaveGuardAndExit pins the flag floor:
// a population too small for the default 0.4 fractions to reach one
// relay still flags a guard and an exit, so a path can be selected; from
// N = 3 on the fractions alone decide, as before.
func TestGenerateRelaysTinyPopulationsHaveGuardAndExit(t *testing.T) {
	for _, tc := range []struct {
		n            int
		guards, exit []bool
	}{
		{1, []bool{true}, []bool{true}},
		{2, []bool{true, false}, []bool{false, true}},
		{3, []bool{true, false, false}, []bool{false, false, true}},
	} {
		relays, err := GenerateRelays(42, DefaultRelayParams(tc.n))
		if err != nil {
			t.Fatal(err)
		}
		descs := make([]directory.Descriptor, len(relays))
		for i, r := range relays {
			descs[i] = r.Desc
			if g := r.Desc.Flags.Has(directory.FlagGuard); g != tc.guards[i] {
				t.Errorf("N=%d relay %d: guard %v, want %v", tc.n, i, g, tc.guards[i])
			}
			if e := r.Desc.Flags.Has(directory.FlagExit); e != tc.exit[i] {
				t.Errorf("N=%d relay %d: exit %v, want %v", tc.n, i, e, tc.exit[i])
			}
		}
		cons, err := directory.NewConsensus(descs)
		if err != nil {
			t.Fatal(err)
		}
		for hops := 1; hops <= tc.n; hops++ {
			if _, err := cons.SelectPath(sim.NewRNG(1, "path"), hops); err != nil {
				t.Errorf("N=%d: %d-hop path: %v", tc.n, hops, err)
			}
		}
	}
}

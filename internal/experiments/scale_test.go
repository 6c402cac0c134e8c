package experiments

import (
	"strings"
	"testing"

	"circuitstart/internal/units"
)

// smallScaleParams shrinks the default scale ablation to test size:
// the structure (per-shard-count timing over byte-identical runs) is
// identical, only the population and workload are smaller.
func smallScaleParams() ScaleParams {
	p := DefaultScaleParams()
	p.Relays = 64
	p.Switches = 8
	p.InitialCircuits = 6
	p.Arrivals = 8
	p.ArrivalRate = 8
	p.TransferSize = 80 * units.Kilobyte
	p.ShardCounts = []int{1, 2, 4}
	return p
}

func TestAblationScale(t *testing.T) {
	p := smallScaleParams()
	res, err := AblationScale(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != len(p.ShardCounts) {
		t.Fatalf("%d runs, want %d", len(res.Runs), len(p.ShardCounts))
	}
	base := res.Runs[0]
	if base.Speedup != 1 {
		t.Fatalf("baseline speedup %v, want 1", base.Speedup)
	}
	if base.Built == 0 || base.TornDown == 0 {
		t.Fatalf("baseline run had no churn: %+v", base)
	}
	for _, run := range res.Runs[1:] {
		// AblationScale errors out if any shard count diverges, so the
		// summary columns must already agree; spot-check anyway.
		if run.MedianTTLB != base.MedianTTLB || run.Built != base.Built ||
			run.TornDown != base.TornDown || run.Rebuilt != base.Rebuilt {
			t.Fatalf("run %+v diverges from baseline %+v", run, base)
		}
		if run.Wall <= 0 || run.Speedup <= 0 {
			t.Fatalf("run at %d shards has no timing: %+v", run.Shards, run)
		}
		// An 8-switch ring splits into as many arcs as shards, and the
		// cost columns must say so.
		if run.CutTrunks != run.Shards || run.Trunks != p.Switches || run.Handoffs == 0 || run.Busy <= 0 {
			t.Fatalf("run at %d shards reports cost %d/%d cut, %d handoffs, busy %v",
				run.Shards, run.CutTrunks, run.Trunks, run.Handoffs, run.Busy)
		}
	}
	if base.CutTrunks != 0 || base.Handoffs != 0 {
		t.Fatalf("one shard reports %d cut trunks and %d handoffs", base.CutTrunks, base.Handoffs)
	}
	var b strings.Builder
	if err := res.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"shards", "speedup", "cut", "handoffs", "busy/wait", "GOMAXPROCS"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestScaleParamsValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*ScaleParams)
	}{
		{"no relays", func(p *ScaleParams) { p.Relays = 0 }},
		{"one switch", func(p *ScaleParams) { p.Switches = 1 }},
		{"zero trunk delay", func(p *ScaleParams) { p.TrunkDelay = 0 }},
		{"no shard counts", func(p *ScaleParams) { p.ShardCounts = nil }},
		{"zero shard count", func(p *ScaleParams) { p.ShardCounts = []int{1, 0} }},
		{"rate without arrivals", func(p *ScaleParams) { p.Arrivals = 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := smallScaleParams()
			tc.mutate(&p)
			if _, err := AblationScale(p); err == nil {
				t.Fatalf("%s accepted", tc.name)
			}
		})
	}
}

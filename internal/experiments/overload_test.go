package experiments

import (
	"bytes"
	"testing"

	"circuitstart/internal/scenario"
)

func TestAblationOverloadReportsPressure(t *testing.T) {
	sc := Overload(42)
	res, err := scenario.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, arm := range res.Arms {
		if got := len(arm.Circuits); got != sc.Circuits.Count {
			t.Fatalf("arm %q has %d circuits, want %d", arm.Name, got, sc.Circuits.Count)
		}
		rs := arm.Net.Resource
		if rs.Admitted == 0 {
			t.Fatalf("arm %q admitted nothing: %+v", arm.Name, rs)
		}
		if rs.Killed == 0 {
			t.Fatalf("arm %q killed nothing — limits never bit: %+v", arm.Name, rs)
		}
		if rs.MemHighWater == 0 {
			t.Fatalf("arm %q recorded no memory high-water", arm.Name)
		}
		if arm.TTLB.Len() == 0 {
			t.Fatalf("arm %q completed nothing", arm.Name)
		}
		if j := arm.JainTTLB(); j <= 0 || j > 1 {
			t.Fatalf("arm %q Jain index %v outside (0, 1]", arm.Name, j)
		}
		killed := 0
		for _, o := range arm.Circuits {
			if o.Killed {
				killed++
			}
			if o.Done && o.Killed {
				t.Fatalf("arm %q circuit %d both done and killed", arm.Name, o.Index)
			}
		}
		if killed == 0 {
			t.Fatalf("arm %q pooled kills but marked no outcome killed", arm.Name)
		}
	}
}

// TestAblationOverloadDeterministicAcrossWorkers pins the hard
// guarantee on the new subsystem: the rendered overload report —
// fairness indices, kill counts, memory high-water marks and all — is
// byte-identical for any Runner worker count.
func TestAblationOverloadDeterministicAcrossWorkers(t *testing.T) {
	sc := Overload(42)
	render := func(workers int) string {
		res, err := scenario.Runner{Workers: workers}.Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	one, eight := render(1), render(8)
	if one != eight {
		t.Fatalf("overload report differs between 1 and 8 workers\n--- 1 ---\n%s--- 8 ---\n%s", one, eight)
	}
}

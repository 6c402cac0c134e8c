package scenario

import "testing"

// TestTrainSizeOneMatchesUntrained pins the byte-identity contract at
// the scenario level: TrainSize 1 caps every train at one frame and
// keeps per-cell signalling, exactly as TrainSize 0 does, so a full
// multi-arm churn run — arrivals, teardowns, relay failure, rebuilds —
// produces bit-identical results with both.
func TestTrainSizeOneMatchesUntrained(t *testing.T) {
	base := churnScenario()
	base.TrainSize = 0
	trained := churnScenario()
	trained.TrainSize = 1
	a, err := Runner{Workers: 1}.Run(base)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Runner{Workers: 1}.Run(trained)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsIdentical(t, a, b)
}

// TestTrainedWorkerCountDeterminism extends the worker-count guarantee
// to batched delivery: with cell trains coalescing on every link, the
// trial outcome is still a pure function of seeds and virtual time, so
// Workers 1 and Workers 8 agree bit for bit.
func TestTrainedWorkerCountDeterminism(t *testing.T) {
	mk := func() Scenario {
		sc := churnScenario()
		sc.TrainSize = 8
		return sc
	}
	serial, err := Runner{Workers: 1}.Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Runner{Workers: 8}.Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	assertResultsIdentical(t, serial, parallel)
}

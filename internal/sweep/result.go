package sweep

import (
	"circuitstart/internal/metrics"
	"circuitstart/internal/scenario"
)

// ArmPoint is one arm's aggregate at one grid point — the compact,
// fixed-schema record the CSV/JSONL sinks stream (quantiles over the
// arm's pooled TTLB distribution, startup-exit aggregates, and the
// fabric/churn counters that catch silently degraded points).
type ArmPoint struct {
	// Arm is the arm's label within the point's scenario.
	Arm string
	// TTLB summarizes the completed transfers' times-to-last-byte in
	// seconds (zero-valued when no transfer completed).
	TTLB metrics.Summary
	// Incomplete counts transfers unfinished at the horizon.
	Incomplete int
	// ExitCwndMean is the mean startup-exit window in cells across the
	// arm's circuits — the paper's headline per-circuit number.
	ExitCwndMean float64
	// ExitTimeMedian is the median startup-exit instant in seconds
	// (zero when no circuit exited startup).
	ExitTimeMedian float64
	// Restarts totals the re-probes the arm's sources performed.
	Restarts uint64
	// UnknownDst and Unroutable pool the arm's fabric drop counters.
	UnknownDst, Unroutable uint64
	// TrunkDrops totals tail drops across the arm's backbone trunks.
	TrunkDrops uint64
	// MeanTrainLen is the mean cells-per-train across the arm's backbone
	// trunks (cells delivered / trains delivered). Exactly 1 when the
	// trial ran untrained, 0 on the one-switch star (it has no trunks).
	MeanTrainLen float64
	// Built, TornDown, Rebuilt and Aborted pool the arm's
	// circuit-lifecycle counters (zero without churn).
	Built, TornDown, Rebuilt, Aborted int
	// Jain is Jain's fairness index over the arm's pooled per-circuit
	// TTLB samples (0 when no transfer completed).
	Jain float64
	// AdmissionRejected, Killed and SchedDrops pool the arm's
	// resource-pressure counters: circuits refused at admission,
	// circuits evicted by relay resource managers, and frames dropped
	// by installed schedulers (zero without limits).
	AdmissionRejected, Killed, SchedDrops uint64
	// MemHighWater is the largest per-relay held-cell memory observed
	// across the arm's trials, in bytes.
	MemHighWater int64
	// Stalls, Recoveries, Retries and Abandoned pool the arm's
	// fault-recovery counters (zero without Faults.Recovery).
	Stalls, Recoveries, Retries, Abandoned int
	// TTRP50 is the median time-to-recovery in seconds (0 when no stall
	// recovered).
	TTRP50 float64
	// Availability is the fraction of download-active time the arm's
	// transports were not stalled (1 without recovery enabled).
	Availability float64
	// GoodputKBps is delivered kilobits per download-active second under
	// fault (0 without recovery enabled).
	GoodputKBps float64
}

// PointResult is one executed grid point: the point itself, its
// per-arm aggregates, and the full scenario Result for custom sinks
// that need more than the compact schema (the stock sinks and the
// in-memory Table do not retain it, so streaming sweeps stay bounded).
type PointResult struct {
	Point Point
	Arms  []ArmPoint
	// Result is the full aggregate the Runner produced. Sinks must not
	// mutate it.
	Result *scenario.Result
}

// armPoints compresses a scenario Result into the per-arm records.
func armPoints(res *scenario.Result) []ArmPoint {
	out := make([]ArmPoint, len(res.Arms))
	for i := range res.Arms {
		a := &res.Arms[i]
		ap := ArmPoint{
			Arm:        a.Name,
			TTLB:       a.TTLB.Summarize(),
			Incomplete: a.Incomplete,
			UnknownDst: a.Net.UnknownDst,
			Unroutable: a.Net.Unroutable,
			Built:      a.Churn.Built,
			TornDown:   a.Churn.TornDown,
			Rebuilt:    a.Churn.Rebuilt,
			Aborted:    a.Churn.Aborted,

			Jain:              a.JainTTLB(),
			AdmissionRejected: a.Net.Resource.Rejected,
			Killed:            a.Net.Resource.Killed,
			SchedDrops:        a.Net.SchedDrops,
			MemHighWater:      int64(a.Net.Resource.MemHighWater),

			Stalls:       a.Resilience.Stalls,
			Recoveries:   a.Resilience.Recoveries,
			Retries:      a.Resilience.Retries,
			Abandoned:    a.Resilience.Abandoned,
			Availability: a.Resilience.Availability(),
			GoodputKBps:  a.Resilience.Goodput() * 8 / 1000,
		}
		if ttr := a.Resilience.TTR; ttr != nil && ttr.Len() > 0 {
			ap.TTRP50 = ttr.Median()
		}
		var exitSum float64
		exits := metrics.NewDistribution("exit_time")
		for _, o := range a.Circuits {
			exitSum += o.ExitCwnd
			if o.ExitTime > 0 {
				exits.Add(o.ExitTime.Seconds())
			}
			ap.Restarts += o.Restarts
		}
		if len(a.Circuits) > 0 {
			ap.ExitCwndMean = exitSum / float64(len(a.Circuits))
		}
		if exits.Len() > 0 {
			ap.ExitTimeMedian = exits.Median()
		}
		var cells, trains uint64
		for _, ts := range a.Net.Trunks {
			ap.TrunkDrops += ts.Stats.TailDrops
			cells += ts.Stats.CellsDelivered
			trains += ts.Stats.TrainsDelivered
		}
		if trains > 0 {
			ap.MeanTrainLen = float64(cells) / float64(trains)
		}
		out[i] = ap
	}
	return out
}

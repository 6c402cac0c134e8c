package scenario

import (
	"fmt"
	"io"
	"time"

	"circuitstart/internal/metrics"
	"circuitstart/internal/netem"
	"circuitstart/internal/resource"
	"circuitstart/internal/sim"
	"circuitstart/internal/traceio"
)

// TrunkStat is one directed trunk link's pooled counters.
type TrunkStat struct {
	// Name is the link's diagnostic name ("trunk:west>east").
	Name string
	// Stats pools the link's counters across a trial set.
	Stats netem.LinkStats
}

// NetStats aggregates fabric-level accounting for a trial set. The
// runner pools it per arm across replications, so a routing bug (frames
// to detached nodes, a disconnected backbone) fails loudly in the
// summary instead of silently blackholing transfers.
type NetStats struct {
	// UnknownDst counts frames addressed to detached nodes.
	UnknownDst uint64
	// Unroutable counts frames with no route between home switches.
	Unroutable uint64
	// Trunks pools each backbone trunk's LinkStats, in the fabric's
	// deterministic trunk order (empty on a star).
	Trunks []TrunkStat
	// Resource pools the relays' resource-manager counters (admissions,
	// rejections, kills, memory high-water; zero without limits).
	Resource resource.Stats
	// SchedDrops counts frames dropped by installed circuit schedulers
	// (bandwidth policers) — distinct from link-level tail drops.
	SchedDrops uint64
	// Shard is what sharding cost the trial set (zero when Shards = 0).
	// It holds wall-clock time, so no seeded output renders it.
	Shard netem.ShardRunStats
}

// merge pools another trial's fabric accounting into s.
func (s *NetStats) merge(o NetStats) {
	s.UnknownDst += o.UnknownDst
	s.Unroutable += o.Unroutable
	s.Resource.Merge(o.Resource)
	s.SchedDrops += o.SchedDrops
	switch {
	case o.Shard.Shards == 0:
	case s.Shard.Shards == 0:
		s.Shard = o.Shard
	default:
		// Same scenario → same plan; the costs add up, shard by shard.
		s.Shard.Handoffs += o.Shard.Handoffs
		s.Shard.Wall += o.Shard.Wall
		for i, b := range o.Shard.Busy {
			s.Shard.Busy[i] += b
		}
	}
	if len(s.Trunks) == 0 {
		s.Trunks = append(s.Trunks, o.Trunks...)
		return
	}
	for i := range o.Trunks {
		// Same scenario → same fabric spec → same trunk order.
		if i < len(s.Trunks) && s.Trunks[i].Name == o.Trunks[i].Name {
			s.Trunks[i].Stats.Merge(o.Trunks[i].Stats)
		} else {
			s.Trunks = append(s.Trunks, o.Trunks[i])
		}
	}
}

// ChurnStats aggregates one arm's circuit-lifecycle activity. It is
// populated only by scenarios with churn configured (CircuitEvents or
// RelayEvents); static scenarios leave it zero with a nil Lifetime, so
// their rendered output is unchanged.
type ChurnStats struct {
	// Built counts circuits built: initial, churn arrivals, rebuilds.
	Built int
	// TornDown counts circuits torn down (state released to the pools).
	TornDown int
	// Rebuilt counts circuits rebuilt after a relay failure.
	Rebuilt int
	// Aborted counts downloads torn down before completing (scheduled
	// teardowns, relay failures on arms without Rebuild, or
	// resource-limit kills and admission rejections).
	Aborted int
	// Rejected counts circuit builds refused at admission by a relay's
	// resource manager (also counted in Aborted).
	Rejected int
	// Lifetime pools the lifetime in seconds of every torn-down
	// circuit across replications.
	Lifetime *metrics.Distribution
}

// merge pools another trial's churn accounting into s.
func (s *ChurnStats) merge(o ChurnStats) {
	s.Built += o.Built
	s.TornDown += o.TornDown
	s.Rebuilt += o.Rebuilt
	s.Aborted += o.Aborted
	s.Rejected += o.Rejected
	if s.Lifetime != nil && o.Lifetime != nil {
		for _, v := range o.Lifetime.Sorted() {
			s.Lifetime.Add(v)
		}
	}
}

// newLifetimeDist names an arm's pooled circuit-lifetime distribution.
func newLifetimeDist(arm string) *metrics.Distribution {
	return metrics.NewDistribution("lifetime_" + arm)
}

// ResilienceStats aggregates one arm's fault-recovery activity. It is
// populated only when the scenario enables Faults.Recovery; otherwise
// it stays zero with a nil TTR and the rendered output is unchanged.
type ResilienceStats struct {
	// Stalls counts declared stalls (one per outage, however many
	// rebuild attempts it took).
	Stalls int
	// Recoveries counts stalls that saw transport progress again.
	Recoveries int
	// Retries counts rebuild attempts spent from downloads' budgets.
	Retries int
	// Abandoned counts downloads that exhausted their retry budget
	// (also counted in ChurnStats.Aborted).
	Abandoned int
	// TTR pools time-to-recovery in seconds: stall declaration to first
	// subsequent progress (or completion).
	TTR *metrics.Distribution
	// Downtime and Active are summed per-download seconds: Active spans
	// each download's first start to its terminal instant, Downtime the
	// stalled portions thereof.
	Downtime float64
	Active   float64
	// GoodputBytes totals bytes landed at receiving endpoints, including
	// partial deliveries on circuits later torn down.
	GoodputBytes float64
}

// merge pools another trial's resilience accounting into s.
func (s *ResilienceStats) merge(o ResilienceStats) {
	s.Stalls += o.Stalls
	s.Recoveries += o.Recoveries
	s.Retries += o.Retries
	s.Abandoned += o.Abandoned
	s.Downtime += o.Downtime
	s.Active += o.Active
	s.GoodputBytes += o.GoodputBytes
	if s.TTR != nil && o.TTR != nil {
		for _, v := range o.TTR.Sorted() {
			s.TTR.Add(v)
		}
	}
}

// Availability is the fraction of download-active time the transport
// was not stalled, in [0, 1] (1 when nothing ran).
func (s *ResilienceStats) Availability() float64 {
	if s.Active <= 0 {
		return 1
	}
	a := 1 - s.Downtime/s.Active
	if a < 0 {
		return 0
	}
	if a > 1 {
		return 1
	}
	return a
}

// Goodput is delivered bytes per download-active second — throughput as
// the endpoints experienced it under fault, rebuild gaps included.
func (s *ResilienceStats) Goodput() float64 {
	if s.Active <= 0 {
		return 0
	}
	return s.GoodputBytes / s.Active
}

// newTTRDist names an arm's pooled time-to-recovery distribution.
func newTTRDist(arm string) *metrics.Distribution {
	return metrics.NewDistribution("ttr_" + arm)
}

// CircuitOutcome is one circuit's outcome in one trial. In churn
// scenarios an entry is one logical download, which may span several
// circuits (rebuilds after relay failures).
type CircuitOutcome struct {
	// Replication and Index locate the circuit in the expansion.
	Replication, Index int
	// TTLB is the transfer's time-to-last-byte (valid when Done). A
	// rebuilt download's TTLB spans its first start to its final
	// completion, so every repeated startup it paid is included.
	TTLB time.Duration
	// Done reports whether the transfer completed within the horizon.
	Done bool
	// Aborted reports the download was torn down before completing
	// (churn scenarios only). Aborted downloads are counted in
	// ChurnStats.Aborted, not in ArmResult.Incomplete.
	Aborted bool
	// StartAt is when the download first started (churn scenarios
	// only; zero otherwise).
	StartAt sim.Time
	// Rebuilds counts the download's circuit rebuilds after relay
	// failures (churn scenarios only).
	Rebuilds int
	// Killed reports the circuit was evicted by a relay's resource
	// manager before its transfer completed.
	Killed bool
	// Rejected reports the circuit was refused at admission by a relay's
	// resource manager — it never carried a cell.
	Rejected bool
	// Trace is the source's cwnd series in cells (nil unless
	// Probes.TraceCwnd was set).
	Trace *metrics.Series
	// OptimalCells is the analytic model's optimal source window.
	OptimalCells float64
	// ExitCwnd and ExitTime describe the startup exit.
	ExitCwnd float64
	ExitTime sim.Time
	// Restarts counts re-probes the source performed.
	Restarts uint64
}

// ArmResult aggregates one arm across all replications.
type ArmResult struct {
	// Name is the arm's label.
	Name string
	// TTLB pools the completed transfers' times-to-last-byte in
	// seconds, in deterministic (replication, circuit) order.
	TTLB *metrics.Distribution
	// Incomplete counts transfers unfinished at the horizon.
	Incomplete int
	// Circuits holds every per-circuit outcome in (replication,
	// circuit) order. Traces, when probed, are found here.
	Circuits []CircuitOutcome
	// Net pools the arm's fabric accounting (drop counters, per-trunk
	// link stats) across replications.
	Net NetStats
	// Churn pools the arm's circuit-lifecycle accounting (zero, with a
	// nil Lifetime, on scenarios without churn).
	Churn ChurnStats
	// Resilience pools the arm's fault-recovery accounting (zero, with
	// a nil TTR, unless the scenario enables Faults.Recovery).
	Resilience ResilienceStats
}

// JainTTLB returns Jain's fairness index over the arm's pooled
// per-circuit TTLB samples — near 1 when circuits finished in
// comparable time, near 1/n when one starved the rest.
func (a *ArmResult) JainTTLB() float64 { return a.TTLB.JainIndex() }

// Result is the aggregated outcome of a Runner.Run.
type Result struct {
	// Scenario echoes the (defaults-filled) scenario that ran.
	Scenario Scenario
	// Arms holds one aggregate per arm, in scenario order.
	Arms []ArmResult
}

// Arm returns the named arm's aggregate, or nil.
func (r *Result) Arm(name string) *ArmResult {
	for i := range r.Arms {
		if r.Arms[i].Name == name {
			return &r.Arms[i]
		}
	}
	return nil
}

// MedianGap returns arm a's median TTLB minus arm b's, in seconds —
// negative when a is faster. It panics if either arm is missing or
// completed no transfers within the horizon (check Incomplete first
// when a horizon may be tight).
func (r *Result) MedianGap(a, b string) float64 {
	armA, armB := r.Arm(a), r.Arm(b)
	if armA == nil || armB == nil {
		panic(fmt.Sprintf("scenario: arms %q, %q not both present", a, b))
	}
	return armA.TTLB.Median() - armB.TTLB.Median()
}

// Summaries returns one summary per arm's TTLB distribution.
func (r *Result) Summaries() []metrics.Summary {
	out := make([]metrics.Summary, len(r.Arms))
	for i := range r.Arms {
		out[i] = r.Arms[i].TTLB.Summarize()
	}
	return out
}

// WriteText renders the per-arm summary table, the circuit-lifecycle
// table when the scenario ran with churn, any fabric drop counters
// (always shown when non-zero — a silent blackhole must not look like a
// slow network), and the per-trunk link stats when the scenario ran on
// a routed backbone.
func (r *Result) WriteText(w io.Writer) error {
	dists := make([]*metrics.Distribution, len(r.Arms))
	for i := range r.Arms {
		dists[i] = r.Arms[i].TTLB
	}
	if err := traceio.WriteSummaryTable(w, dists...); err != nil {
		return err
	}
	if err := r.writeChurn(w); err != nil {
		return err
	}
	if err := r.writeResilience(w); err != nil {
		return err
	}
	if err := r.writeResources(w); err != nil {
		return err
	}
	for i := range r.Arms {
		arm := &r.Arms[i]
		if arm.Net.UnknownDst > 0 || arm.Net.Unroutable > 0 {
			if _, err := fmt.Fprintf(w, "warning: arm %s dropped frames in the fabric: %d to unknown destinations, %d unroutable\n",
				arm.Name, arm.Net.UnknownDst, arm.Net.Unroutable); err != nil {
				return err
			}
		}
	}
	hasTrunks := false
	for i := range r.Arms {
		if len(r.Arms[i].Trunks()) > 0 {
			hasTrunks = true
		}
	}
	if !hasTrunks {
		return nil
	}
	tbl := traceio.NewTable("arm", "trunk", "delivered", "bytes_out", "tail_drops", "random_loss", "max_queue", "queue_delay", "mean_train")
	for i := range r.Arms {
		arm := &r.Arms[i]
		for _, ts := range arm.Trunks() {
			tbl.AddRowf(arm.Name, ts.Name, ts.Stats.CellsDelivered, ts.Stats.BytesOut.String(),
				ts.Stats.TailDrops, ts.Stats.RandomLoss, ts.Stats.MaxQueueLen, ts.Stats.QueueDelay.String(),
				fmt.Sprintf("%.2f", ts.Stats.MeanTrainLen()))
		}
	}
	return tbl.WriteText(w)
}

// writeChurn renders the per-arm circuit-lifecycle table. Scenarios
// without churn have nil Lifetime distributions and emit nothing, so
// pre-churn outputs are unchanged byte for byte.
func (r *Result) writeChurn(w io.Writer) error {
	hasChurn := false
	for i := range r.Arms {
		if r.Arms[i].Churn.Lifetime != nil {
			hasChurn = true
		}
	}
	if !hasChurn {
		return nil
	}
	tbl := traceio.NewTable("arm", "built", "torn_down", "rebuilt", "aborted", "rejected", "median_life_s")
	for i := range r.Arms {
		c := &r.Arms[i].Churn
		life := "-"
		if c.Lifetime != nil && c.Lifetime.Len() > 0 {
			life = fmt.Sprintf("%.3f", c.Lifetime.Median())
		}
		tbl.AddRowf(r.Arms[i].Name, c.Built, c.TornDown, c.Rebuilt, c.Aborted, c.Rejected, life)
	}
	return tbl.WriteText(w)
}

// writeResilience renders the per-arm fault-recovery table. Scenarios
// without Faults.Recovery have nil TTR distributions and emit nothing,
// so pre-fault outputs are unchanged byte for byte.
func (r *Result) writeResilience(w io.Writer) error {
	enabled := false
	for i := range r.Arms {
		if r.Arms[i].Resilience.TTR != nil {
			enabled = true
		}
	}
	if !enabled {
		return nil
	}
	tbl := traceio.NewTable("arm", "stalls", "recoveries", "retries", "abandoned", "median_ttr_s", "availability", "goodput_kbps")
	for i := range r.Arms {
		rs := &r.Arms[i].Resilience
		ttr := "-"
		if rs.TTR != nil && rs.TTR.Len() > 0 {
			ttr = fmt.Sprintf("%.3f", rs.TTR.Median())
		}
		tbl.AddRowf(r.Arms[i].Name, rs.Stalls, rs.Recoveries, rs.Retries, rs.Abandoned,
			ttr, fmt.Sprintf("%.4f", rs.Availability()), fmt.Sprintf("%.1f", rs.Goodput()*8/1000))
	}
	return tbl.WriteText(w)
}

// writeResources renders the per-arm fairness and resource-pressure
// table. It is emitted only when some arm configures a scheduler or
// resource limits, so pre-existing scenario outputs are unchanged byte
// for byte.
func (r *Result) writeResources(w io.Writer) error {
	enabled := false
	for _, a := range r.Scenario.Arms {
		if a.Relay.Enabled() {
			enabled = true
		}
	}
	if !enabled {
		return nil
	}
	tbl := traceio.NewTable("arm", "jain_ttlb", "admitted", "rejected", "killed", "mem_hw", "sched_drops")
	for i := range r.Arms {
		arm := &r.Arms[i]
		rs := arm.Net.Resource
		tbl.AddRowf(arm.Name, fmt.Sprintf("%.3f", arm.JainTTLB()),
			rs.Admitted, rs.Rejected, rs.Killed, rs.MemHighWater.String(), arm.Net.SchedDrops)
	}
	return tbl.WriteText(w)
}

// Trunks returns the arm's pooled per-trunk stats (nil on a star).
func (a *ArmResult) Trunks() []TrunkStat { return a.Net.Trunks }

// Command circuitsim regenerates the paper's figures and the ablation
// tables from the command line. Run 'circuitsim -h' for the subcommand
// list (rendered from the same table that dispatches them, so the help
// text cannot drift from reality) and 'circuitsim <command> -h' for
// each command's flags.
//
// Each subcommand prints a human-readable table to stdout; -csv
// additionally writes the raw series/CDF in gnuplot-ready CSV. The
// scenario subcommand runs one population base, one arm per policy, on
// a multi-core runner: a spec.File with no dimensions, built from the
// base flags it shares with sweep and rendered as spec.Parse renders a
// base. Its -reps, -workers and -csv are command options, not spec
// fields.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"circuitstart/internal/experiments"
	"circuitstart/internal/faults"
	"circuitstart/internal/metrics"
	"circuitstart/internal/scenario"
	"circuitstart/internal/sim"
	"circuitstart/internal/spec"
	"circuitstart/internal/traceio"
	"circuitstart/internal/units"
	"circuitstart/internal/workload"
)

// command binds one subcommand name to its summary and implementation.
// The dispatcher and the usage text are both rendered from the
// commands table below — the single source of truth — so `circuitsim
// -h`, the README's CLI reference and the actual behaviour cannot
// diverge silently (TestUsageMatchesCommandTable enforces it).
type command struct {
	name    string
	summary string
	run     func(args []string) error
}

var commands = []command{
	{"fig1-cwnd", "single-circuit source cwnd trace (Figure 1, upper panels)", runFig1Cwnd},
	{"fig1-cdf", "download-time CDF, with vs without CircuitStart (Figure 1, lower)", runFig1CDF},
	{"ablation", "design-choice sweeps: " + strings.Join(ablationNames(), ", "), runAblation},
	{"dynamic", "capacity-step extension (future-work experiment)", runDynamic},
	{"scenario", "declarative multi-arm sweep on the parallel runner", runScenario},
	{"sweep", "parameter-grid engine: dimensions × base scenario, streamed to CSV/JSONL", runSweep},
	{"serve", "sweep service daemon: the grid engine behind the versioned spec API", runServe},
	{"spec", "validate and canonicalize a sweep spec file", runSpecCmd},
}

// main dispatches os.Args to the commands table. TestScripts runs
// each pinned command line through the same table in-process, so main
// adds only the os.Args slicing and the exit status, and only the CI
// jobs that build the binary run it.
func main() {
	if len(os.Args) < 2 {
		usage(os.Stderr)
		os.Exit(2)
	}
	name := os.Args[1]
	if name == "-h" || name == "--help" || name == "help" {
		usage(os.Stderr)
		return
	}
	cmd, ok := lookup(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "circuitsim: unknown command %q\n", name)
		usage(os.Stderr)
		os.Exit(2)
	}
	if err := cmd.run(os.Args[2:]); err != nil {
		fmt.Fprintln(os.Stderr, "circuitsim:", err)
		os.Exit(1)
	}
}

// lookup finds the command called name in the commands table.
func lookup(name string) (command, bool) {
	for _, cmd := range commands {
		if cmd.name == name {
			return cmd, true
		}
	}
	return command{}, false
}

// usage renders the help text from the commands table.
func usage(w io.Writer) {
	fmt.Fprint(w, "circuitsim — CircuitStart (SIGCOMM'18) reproduction harness\n\nCommands:\n")
	width := 0
	for _, cmd := range commands {
		if len(cmd.name) > width {
			width = len(cmd.name)
		}
	}
	for _, cmd := range commands {
		fmt.Fprintf(w, "  %-*s  %s\n", width, cmd.name, cmd.summary)
	}
	fmt.Fprint(w, "\nRun 'circuitsim <command> -h' for flags.\n")
}

func runFig1Cwnd(args []string) error {
	fs := flag.NewFlagSet("fig1-cwnd", flag.ExitOnError)
	distance := fs.Int("distance", 1, "bottleneck distance from the source in hops (1..hops)")
	hops := fs.Int("hops", 3, "number of relays on the circuit")
	policy := fs.String("policy", "circuitstart", "startup policy")
	seed := fs.Int64("seed", 42, "experiment seed")
	horizon := fs.Duration("horizon", 2*time.Second, "simulated time")
	csvPath := fs.String("csv", "", "write the (time_ms, cwnd_kb) trace as CSV")
	stopProfiles, err := parseProfiled(fs, args)
	if err != nil {
		return err
	}
	defer stopProfiles()
	if *horizon <= 0 {
		return fmt.Errorf("-horizon %v: want a positive duration", *horizon)
	}

	p := experiments.DefaultCwndTraceParams(*distance)
	p.Seed = *seed
	p.Hops = *hops
	p.Transport.Policy = *policy
	p.Horizon = sim.Time(*horizon)
	r, err := experiments.Fig1CwndTrace(p)
	if err != nil {
		return err
	}

	fmt.Printf("fig1-cwnd: policy=%s bottleneck %d/%d hops, optimal=%.1f cells (%.1f KB)\n",
		*policy, *distance, *hops, r.OptimalCells, r.OptimalCells*512/1000)
	tbl := traceio.NewTable("metric", "value")
	tbl.AddRowf("exit cwnd [cells]", r.ExitCwnd)
	tbl.AddRowf("exit time", r.ExitTime.String())
	tbl.AddRowf("peak cwnd [cells]", r.PeakCells)
	settle := "never"
	if r.SettleTime >= 0 {
		settle = r.SettleTime.String()
	}
	tbl.AddRowf("settled near optimal at", settle)
	tbl.AddRowf("final cwnd [cells]", r.FinalCells)
	if err := tbl.WriteText(os.Stdout); err != nil {
		return err
	}

	if *csvPath != "" {
		kb := metrics.NewSeries("cwnd_kb")
		for _, pt := range r.CwndKBPoints() {
			kb.Record(pt.At, pt.Value)
		}
		return writeCSV(*csvPath, func(f *os.File) error {
			return traceio.WriteSeriesCSV(f, kb)
		})
	}
	return nil
}

func runFig1CDF(args []string) error {
	fs := flag.NewFlagSet("fig1-cdf", flag.ExitOnError)
	circuits := fs.Int("circuits", 50, "concurrent circuits")
	relays := fs.Int("relays", 40, "relay population size")
	size := fs.Int64("size", 500_000, "transfer size per circuit [bytes]")
	download := fs.Bool("download", false, "run transfers in the download (server → client) direction")
	seed := fs.Int64("seed", 42, "experiment seed")
	csvPath := fs.String("csv", "", "write both CDFs as CSV")
	stopProfiles, err := parseProfiled(fs, args)
	if err != nil {
		return err
	}
	defer stopProfiles()

	sc := experiments.Fig1CDF(*seed)
	pop := workload.DefaultRelayParams(*relays)
	sc.Topology.Population = &pop
	sc.Circuits.Count = *circuits
	sc.Circuits.TransferSize = units.DataSize(*size)
	sc.Circuits.Download = *download
	return writeFig1CDF(os.Stdout, sc, *csvPath)
}

// writeFig1CDF runs the aggregate experiment sc (Fig1CDF or an edit of
// it) and prints one TTLB summary row per arm and CircuitStart's median
// improvement over BackTap; csvPath, if set, receives both CDFs.
func writeFig1CDF(w io.Writer, sc scenario.Scenario, csvPath string) error {
	res, err := scenario.Run(sc)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "fig1-cdf: %d circuits over %d relays, %s each\n",
		sc.Circuits.Count, sc.Topology.Population.N, sc.Circuits.TransferSize)
	dists := make([]*metrics.Distribution, 0, len(res.Arms))
	for _, arm := range res.Arms {
		if arm.Incomplete > 0 {
			fmt.Fprintf(w, "  warning: %s left %d transfers incomplete\n", arm.Name, arm.Incomplete)
		}
		dists = append(dists, arm.TTLB)
	}
	if err := traceio.WriteSummaryTable(w, dists...); err != nil {
		return err
	}
	if err := writeMedianGap(w, res, "median improvement with CircuitStart", "circuitstart", "backtap"); err != nil {
		return err
	}

	if csvPath != "" {
		return writeCSV(csvPath, func(f *os.File) error {
			return traceio.WriteCDFCSV(f, dists...)
		})
	}
	return nil
}

// writeMedianGap prints how much earlier arm a's median transfer
// finished than arm b's, or, when an arm completed no transfer within
// the horizon and so has no median, which arm that was.
func writeMedianGap(w io.Writer, res *scenario.Result, label, a, b string) error {
	for _, name := range []string{a, b} {
		if arm := res.Arm(name); arm == nil || arm.TTLB.Len() == 0 {
			_, err := fmt.Fprintf(w, "%s: none, %s completed no transfer\n", label, name)
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%s: %.3f s\n", label, -res.MedianGap(a, b))
	return err
}

// ablation binds one -name of the ablation subcommand to the function
// that runs it and prints its table. The usage text lists the names
// in this order.
type ablation struct {
	name string
	run  func(w io.Writer, a ablationArgs) error
}

// ablationArgs carries the parsed ablation flags: the seed every
// ablation takes, and the scale ablation's population and shard counts.
type ablationArgs struct {
	seed  int64
	scale experiments.ScaleParams
}

var ablations = []ablation{
	{"gamma", traceAblation(func(seed int64) ([]experiments.TraceRow, error) {
		return experiments.AblationGamma(seed, nil)
	})},
	{"compensation", traceAblation(experiments.AblationCompensation)},
	{"clock", traceAblation(experiments.AblationFeedbackClock)},
	{"position", traceAblation(experiments.AblationBottleneckPosition)},
	{"concurrency", runConcurrency},
	{"extensions", traceAblation(experiments.AblationExtensions)},
	{"vegas", traceAblation(experiments.AblationVegas)},
	{"shared", func(w io.Writer, a ablationArgs) error {
		return reportShared(w, experiments.SharedBottleneck(a.seed))
	}},
	{"churn", func(w io.Writer, a ablationArgs) error {
		sc, err := experiments.Churn(a.seed)
		if err != nil {
			return err
		}
		return reportChurn(w, sc)
	}},
	{"overload", func(w io.Writer, a ablationArgs) error {
		return reportOverload(w, experiments.Overload(a.seed))
	}},
	{"faults", func(w io.Writer, a ablationArgs) error {
		return reportFaults(w, experiments.Faults(a.seed))
	}},
	{"scale", runScale},
}

// ablationNames lists every -name the ablation subcommand accepts, in
// table order.
func ablationNames() []string {
	names := make([]string, len(ablations))
	for i, ab := range ablations {
		names[i] = ab.name
	}
	return names
}

func runAblation(args []string) error {
	fs := flag.NewFlagSet("ablation", flag.ExitOnError)
	name := fs.String("name", "gamma", strings.Join(ablationNames(), " | "))
	seed := fs.Int64("seed", 42, "experiment seed")
	relays := fs.Int("relays", 1024, "generated relay population size (scale only)")
	switches := fs.Int("switches", 16, "backbone ring switches (scale only)")
	shardCounts := fs.String("shards", "1,2,4", "comma-separated shard counts to time (scale only)")
	stopProfiles, err := parseProfiled(fs, args)
	if err != nil {
		return err
	}
	defer stopProfiles()

	for _, ab := range ablations {
		if ab.name != *name {
			continue
		}
		a := ablationArgs{seed: *seed, scale: experiments.DefaultScaleParams()}
		a.scale.Seed = *seed
		a.scale.Relays = *relays
		a.scale.Switches = *switches
		if a.scale.ShardCounts, err = parseShardCounts(*shardCounts); err != nil {
			return err
		}
		return ab.run(os.Stdout, a)
	}
	return fmt.Errorf("unknown ablation %q", *name)
}

// parseShardCounts parses the scale ablation's "1,2,4" flag.
func parseShardCounts(s string) ([]int, error) {
	var counts []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad shard count %q", part)
		}
		counts = append(counts, n)
	}
	return counts, nil
}

// traceAblation adapts a sweep over the single-circuit trace scenario:
// one row per configuration, with the window statistics of its trace.
func traceAblation(rows func(seed int64) ([]experiments.TraceRow, error)) func(io.Writer, ablationArgs) error {
	return func(w io.Writer, a ablationArgs) error {
		rs, err := rows(a.seed)
		if err != nil {
			return err
		}
		tbl := traceio.NewTable("configuration", "exit_cwnd", "optimal", "peak", "settle", "final")
		for _, r := range rs {
			settle := "never"
			if r.SettleTime >= 0 {
				settle = r.SettleTime.String()
			}
			tbl.AddRowf(r.Label, r.ExitCwnd, r.OptimalCells, r.PeakCells, settle, r.FinalCells)
		}
		return tbl.WriteText(w)
	}
}

// runConcurrency prints TTLB medians and 90th percentiles per
// concurrency level. Its four aggregate runs take seconds, so only
// TestScripts without -short runs it (testdata/script/concurrency.txt).
func runConcurrency(w io.Writer, a ablationArgs) error {
	rows, err := experiments.AblationConcurrency(a.seed, nil)
	if err != nil {
		return err
	}
	tbl := traceio.NewTable("circuits", "median_with_s", "median_without_s", "p90_with_s", "p90_without_s")
	for _, r := range rows {
		tbl.AddRowf(r.Circuits, r.MedianWith, r.MedianWithout, r.P90With, r.P90Without)
	}
	return tbl.WriteText(w)
}

// writeReport runs one multi-arm ablation scenario and prints a header
// line describing it, then the result table.
func writeReport(w io.Writer, sc scenario.Scenario, header string, args ...any) (*scenario.Result, error) {
	res, err := scenario.Run(sc)
	if err != nil {
		return nil, err
	}
	if _, err := fmt.Fprintf(w, header+"\n", args...); err != nil {
		return nil, err
	}
	return res, res.WriteText(w)
}

// trunkRate is the rate of a dumbbell scenario's one backbone trunk.
func trunkRate(sc scenario.Scenario) units.DataRate {
	return sc.Topology.Fabric.Trunks[0].Config.Rate
}

func reportShared(w io.Writer, sc scenario.Scenario) error {
	res, err := writeReport(w, sc, "ablation shared-bottleneck: %d circuits across one %s trunk, %s each",
		sc.Circuits.Count, trunkRate(sc), sc.Circuits.TransferSize)
	if err != nil {
		return err
	}
	return writeMedianGap(w, res, "median improvement with CircuitStart", "circuitstart", "slowstart")
}

func reportChurn(w io.Writer, sc scenario.Scenario) error {
	res, err := writeReport(w, sc, "ablation churn: %d initial + %d arriving downloads (%s each) over %d relays, %d relay failures",
		sc.Circuits.Count, sc.CircuitEvents.Arrivals, sc.Circuits.TransferSize, sc.Topology.Population.N, len(sc.RelayEvents)/2)
	if err != nil {
		return err
	}
	return writeMedianGap(w, res, "median improvement with CircuitStart under churn", "circuitstart", "backtap")
}

func reportOverload(w io.Writer, sc scenario.Scenario) error {
	pairs := sc.Circuits.Count / 2
	_, err := writeReport(w, sc, "ablation overload: %d interactive (%s) + %d bulk (%s) circuits on %d relay pairs behind a %s trunk, caps %s",
		pairs, sc.Circuits.SizeMix[0], pairs, sc.Circuits.SizeMix[1], len(sc.Topology.Relays)/2, trunkRate(sc), sc.Arms[0].Relay.Limits.Label())
	return err
}

func reportFaults(w io.Writer, sc scenario.Scenario) error {
	_, err := writeReport(w, sc, "ablation faults: %d downloads (%s each) on %d relay pairs behind a %s trunk; burst loss, relay hang and trunk flap with endpoint recovery",
		sc.Circuits.Count, sc.Circuits.TransferSize, len(sc.Topology.Relays)/2, trunkRate(sc))
	return err
}

func runScale(w io.Writer, a ablationArgs) error {
	p := a.scale
	res, err := experiments.AblationScale(p)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "ablation scale: %d initial + %d arriving downloads (%s each) over %d relays behind %d switches, one trial timed per shard count\n",
		p.InitialCircuits, p.Arrivals, p.TransferSize, p.Relays, p.Switches)
	return res.WriteText(w)
}

func runDynamic(args []string) error {
	fs := flag.NewFlagSet("dynamic", flag.ExitOnError)
	seed := fs.Int64("seed", 42, "experiment seed")
	stopProfiles, err := parseProfiled(fs, args)
	if err != nil {
		return err
	}
	defer stopProfiles()

	r, err := experiments.ExtensionDynamicRestart(experiments.DynamicRestart(*seed))
	if err != nil {
		return err
	}
	tbl := traceio.NewTable("metric", "value")
	tbl.AddRowf("optimal before [cells]", r.OptimalBefore)
	tbl.AddRowf("optimal after [cells]", r.OptimalAfter)
	tbl.AddRowf("window at step [cells]", r.WindowAtStep)
	rec := "never"
	if r.RecoveryTime >= 0 {
		rec = r.RecoveryTime.String()
	}
	tbl.AddRowf("recovery to 80% of new optimal", rec)
	tbl.AddRowf("final window [cells]", r.FinalCells)
	tbl.AddRowf("re-probes", r.Restarts)
	return tbl.WriteText(os.Stdout)
}

// runScenario runs a population base with no dimensions, one arm per
// policy, on the parallel runner. Its spec comes from
// defineScenarioFlags, through the normalize, render and validate
// sequence spec.Parse runs, so a base the command accepts is one a spec
// file accepts.
func runScenario(args []string) error {
	fs := flag.NewFlagSet("scenario", flag.ExitOnError)
	scenarioSpec, opts := defineScenarioFlags(fs)
	stopProfiles, err := parseProfiled(fs, args)
	if err != nil {
		return err
	}
	defer stopProfiles()

	if opts.reps < 1 {
		return fmt.Errorf("-reps %d: want at least 1", opts.reps)
	}
	file, err := scenarioSpec()
	if err != nil {
		return err
	}
	sc, err := file.Scenario()
	if err != nil {
		return err
	}
	sc.Replications = opts.reps
	res, err := scenario.Runner{Workers: opts.workers}.Run(sc)
	if err != nil {
		return err
	}

	fmt.Printf("scenario: %d circuits × %d arms × %d reps over %d relays, %s each\n",
		sc.Circuits.Count, len(res.Arms), opts.reps, sc.Topology.Population.N, sc.Circuits.TransferSize)
	for _, arm := range res.Arms {
		if arm.Incomplete > 0 {
			fmt.Printf("  warning: %s left %d transfers incomplete\n", arm.Name, arm.Incomplete)
		}
	}
	if err := res.WriteText(os.Stdout); err != nil {
		return err
	}

	if opts.csvPath != "" {
		dists := make([]*metrics.Distribution, len(res.Arms))
		for i := range res.Arms {
			dists[i] = res.Arms[i].TTLB
		}
		return writeCSV(opts.csvPath, func(f *os.File) error {
			return traceio.WriteCDFCSV(f, dists...)
		})
	}
	return nil
}

// scenarioOptions are the scenario command's options: how often the
// run repeats, over how many workers, and where its CDFs go. They are
// not part of the spec.
type scenarioOptions struct {
	reps, workers int
	csvPath       string
}

// defineScenarioFlags declares on fs the scenario command's flags: the
// base flags it shares with sweep, -poisson, -train, -shards and
// -faults, and its options. The returned function, once fs is parsed,
// fills a population spec.File with no dimensions from them.
func defineScenarioFlags(fs *flag.FlagSet) (func() (*spec.File, error), *scenarioOptions) {
	fillBase := defineBaseFlags(fs, "circuitstart,backtap")
	poisson := fs.Float64("poisson", 0, "Poisson arrival rate per second (overrides -spread)")
	train := fs.Int("train", 0, "cell-train coalescing cap per link (≤1 = one event per cell)")
	shards := fs.Int("shards", 0, "partition each trial across this many shard clocks (0 = single clock; needs -switches)")
	faultArg := fs.String("faults", "", "fault plan: a preset name ("+strings.Join(faults.PresetNames(), ", ")+") or a JSON spec file")
	opts := &scenarioOptions{}
	fs.IntVar(&opts.reps, "reps", 1, "replications per arm (independent seed substreams)")
	fs.IntVar(&opts.workers, "workers", 0, "trial worker pool size (0 = one per CPU)")
	fs.StringVar(&opts.csvPath, "csv", "", "write every arm's TTLB CDF as CSV")
	return func() (*spec.File, error) {
		f := &spec.File{Name: "cli-sweep", Base: spec.Base{Kind: "population", Train: *train, Shards: *shards}}
		if err := fillBase(f); err != nil {
			return nil, err
		}
		if *poisson != 0 {
			f.Base.PoissonRate, f.Base.SpreadMs = *poisson, nil
		}
		if *faultArg == "" {
			return f, nil
		}
		// Preset names win, so a stray file named "burstloss" in the
		// working directory cannot shadow the preset silently.
		if _, err := faults.Preset(*faultArg, nil); err == nil {
			f.Base.Faults = *faultArg
		} else if f.Base.FaultPlan, err = os.ReadFile(*faultArg); err != nil {
			return nil, fmt.Errorf("-faults %q is neither a preset (%s) nor a readable spec file: %w",
				*faultArg, strings.Join(faults.PresetNames(), ", "), err)
		}
		return f, nil
	}, opts
}

func writeCSV(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := write(f); err != nil {
		return err
	}
	return f.Sync()
}

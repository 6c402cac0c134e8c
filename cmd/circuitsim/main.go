// Command circuitsim regenerates the paper's figures and the ablation
// tables from the command line. Run 'circuitsim -h' for the subcommand
// list (rendered from the same table that dispatches them, so the help
// text cannot drift from reality) and 'circuitsim <command> -h' for
// each command's flags.
//
// Each subcommand prints a human-readable table to stdout; -csv
// additionally writes the raw series/CDF in gnuplot-ready CSV. The
// scenario subcommand runs a declaratively-specified sweep — one arm
// per policy over a generated relay population — on a multi-core
// runner.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"circuitstart/internal/core"
	"circuitstart/internal/experiments"
	"circuitstart/internal/faults"
	"circuitstart/internal/metrics"
	"circuitstart/internal/netem"
	"circuitstart/internal/resource"
	"circuitstart/internal/scenario"
	"circuitstart/internal/sim"
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
	{"ablation", "design-choice sweeps: " + strings.Join(ablationNames, ", "), runAblation},
	{"dynamic", "capacity-step extension (future-work experiment)", runDynamic},
	{"scenario", "declarative multi-arm sweep on the parallel runner", runScenario},
	{"sweep", "parameter-grid engine: dimensions × base scenario, streamed to CSV/JSONL", runSweep},
	{"serve", "sweep service daemon: the grid engine behind the versioned spec API", runServe},
	{"spec", "validate and canonicalize a sweep spec file", runSpecCmd},
}

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
	for _, cmd := range commands {
		if cmd.name == name {
			if err := cmd.run(os.Args[2:]); err != nil {
				fmt.Fprintln(os.Stderr, "circuitsim:", err)
				os.Exit(1)
			}
			return
		}
	}
	fmt.Fprintf(os.Stderr, "circuitsim: unknown command %q\n", name)
	usage(os.Stderr)
	os.Exit(2)
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

	p := experiments.DefaultCDFParams()
	p.Seed = *seed
	p.Scenario.Circuits = *circuits
	p.Scenario.Relays = workload.DefaultRelayParams(*relays)
	p.Scenario.TransferSize = units.DataSize(*size)
	p.Scenario.Download = *download
	res, err := experiments.Fig1DownloadCDF(p)
	if err != nil {
		return err
	}

	fmt.Printf("fig1-cdf: %d circuits over %d relays, %s each\n",
		*circuits, *relays, units.DataSize(*size))
	dists := make([]*metrics.Distribution, 0, len(res.Arms))
	for _, arm := range res.Arms {
		if arm.Incomplete > 0 {
			fmt.Printf("  warning: %s left %d transfers incomplete\n", arm.Policy, arm.Incomplete)
		}
		dists = append(dists, arm.TTLB)
	}
	if err := traceio.WriteSummaryTable(os.Stdout, dists...); err != nil {
		return err
	}
	if gap := res.MedianGap("circuitstart", "backtap"); len(res.Arms) >= 2 {
		fmt.Printf("median improvement with CircuitStart: %.3f s\n", -gap)
	}

	if *csvPath != "" {
		return writeCSV(*csvPath, func(f *os.File) error {
			return traceio.WriteCDFCSV(f, dists...)
		})
	}
	return nil
}

// ablationNames lists every -name the ablation subcommand accepts, in
// presentation order; runAblation's switch must cover exactly these
// (the usage text and README derive from this list).
var ablationNames = []string{
	"gamma", "compensation", "clock", "position", "concurrency",
	"extensions", "vegas", "shared", "churn", "overload", "faults",
	"scale",
}

func runAblation(args []string) error {
	fs := flag.NewFlagSet("ablation", flag.ExitOnError)
	name := fs.String("name", "gamma", strings.Join(ablationNames, " | "))
	seed := fs.Int64("seed", 42, "experiment seed")
	circuits := fs.Int("circuits", 8, "circuits sharing the trunk (shared, faults)")
	trunk := fs.Float64("trunk", 16, "shared trunk rate [Mbit/s] (shared, overload, faults)")
	arrivals := fs.Int("arrivals", 40, "churn downloads arriving mid-run (churn only)")
	rate := fs.Float64("rate", 8, "churn arrival rate per second (churn only)")
	failures := fs.Int("failures", 2, "high-bandwidth relays failing mid-run (churn only)")
	pairs := fs.Int("pairs", 8, "interactive+bulk circuit pairs (overload only)")
	maxCircuits := fs.Int("max-circuits", 6, "per-relay circuit cap (overload only)")
	maxMemory := fs.Int64("max-memory", 128_000, "per-relay held-cell memory cap [bytes] (overload only)")
	killPolicy := fs.String("kill", "kill-heaviest", "cap policy: reject-new | kill-oldest | kill-heaviest (overload only)")
	train := fs.Int("train", 0, "cell-train coalescing cap per link, <=1 = one event per cell (churn, overload, faults)")
	relays := fs.Int("relays", 1024, "generated relay population size (scale only)")
	switches := fs.Int("switches", 16, "backbone ring switches (scale only)")
	shardCounts := fs.String("shards", "1,2,4", "comma-separated shard counts to time (scale only)")
	stopProfiles, err := parseProfiled(fs, args)
	if err != nil {
		return err
	}
	defer stopProfiles()

	switch *name {
	case "gamma":
		rows, err := experiments.AblationGamma(*seed, nil)
		if err != nil {
			return err
		}
		return printAblation(rows)
	case "compensation":
		rows, err := experiments.AblationCompensation(*seed)
		if err != nil {
			return err
		}
		return printAblation(rows)
	case "clock":
		rows, err := experiments.AblationFeedbackClock(*seed)
		if err != nil {
			return err
		}
		return printAblation(rows)
	case "position":
		rows, err := experiments.AblationBottleneckPosition(*seed, 3)
		if err != nil {
			return err
		}
		return printAblation(rows)
	case "extensions":
		rows, err := experiments.AblationExtensions(*seed)
		if err != nil {
			return err
		}
		return printAblation(rows)
	case "vegas":
		rows, err := experiments.AblationVegas(*seed, nil)
		if err != nil {
			return err
		}
		return printAblation(rows)
	case "shared":
		p := experiments.DefaultSharedBottleneckParams()
		p.Seed = *seed
		p.Circuits = *circuits
		p.TrunkRate = units.Mbps(*trunk)
		res, err := experiments.AblationSharedBottleneck(p)
		if err != nil {
			return err
		}
		fmt.Printf("ablation shared-bottleneck: %d circuits across one %s trunk, %s each\n",
			p.Circuits, p.TrunkRate, p.TransferSize)
		if err := res.WriteText(os.Stdout); err != nil {
			return err
		}
		fmt.Printf("median improvement with CircuitStart: %.3f s\n",
			-res.MedianGap("circuitstart", "slowstart"))
		return nil
	case "concurrency":
		rows, err := experiments.AblationConcurrency(*seed, nil)
		if err != nil {
			return err
		}
		tbl := traceio.NewTable("circuits", "median_with_s", "median_without_s", "p90_with_s", "p90_without_s")
		for _, r := range rows {
			tbl.AddRowf(r.Circuits, r.MedianWith, r.MedianWithout, r.P90With, r.P90Without)
		}
		return tbl.WriteText(os.Stdout)
	case "churn":
		p := experiments.DefaultChurnParams()
		p.Seed = *seed
		p.Arrivals = *arrivals
		p.ArrivalRate = *rate
		p.Failures = *failures
		p.TrainSize = *train
		res, err := experiments.AblationChurn(p)
		if err != nil {
			return err
		}
		fmt.Printf("ablation churn: %d initial + %d arriving downloads (%s each) over %d relays, %d relay failures\n",
			p.InitialCircuits, p.Arrivals, p.TransferSize, p.Relays.N, p.Failures)
		if err := res.WriteText(os.Stdout); err != nil {
			return err
		}
		fmt.Printf("median improvement with CircuitStart under churn: %.3f s\n",
			-res.MedianGap("circuitstart", "backtap"))
		return nil
	case "overload":
		policy, err := resource.PolicyByName(*killPolicy)
		if err != nil {
			return err
		}
		p := experiments.DefaultOverloadParams()
		p.Seed = *seed
		p.CircuitPairs = *pairs
		p.TrunkRate = units.Mbps(*trunk)
		p.Limits.MaxCircuits = *maxCircuits
		p.Limits.MaxMemory = units.DataSize(*maxMemory)
		p.Limits.Policy = policy
		p.TrainSize = *train
		res, err := experiments.AblationOverload(p)
		if err != nil {
			return err
		}
		fmt.Printf("ablation overload: %d interactive (%s) + %d bulk (%s) circuits on %d relay pairs behind a %s trunk, caps %s\n",
			p.CircuitPairs, p.Interactive, p.CircuitPairs, p.Bulk, p.RelayPairs, p.TrunkRate, p.Limits.Label())
		return res.WriteText(os.Stdout)
	case "faults":
		p := experiments.DefaultFaultsParams()
		p.Seed = *seed
		p.Circuits = *circuits
		p.TrunkRate = units.Mbps(*trunk)
		p.TrainSize = *train
		res, err := experiments.AblationFaults(p)
		if err != nil {
			return err
		}
		fmt.Printf("ablation faults: %d downloads (%s each) on %d relay pairs behind a %s trunk; burst loss, relay hang and trunk flap with endpoint recovery\n",
			p.Circuits, p.TransferSize, p.RelayPairs, p.TrunkRate)
		return res.WriteText(os.Stdout)
	case "scale":
		p := experiments.DefaultScaleParams()
		p.Seed = *seed
		p.Relays = *relays
		p.Switches = *switches
		p.TrainSize = *train
		counts, err := parseShardCounts(*shardCounts)
		if err != nil {
			return err
		}
		p.ShardCounts = counts
		res, err := experiments.AblationScale(p)
		if err != nil {
			return err
		}
		fmt.Printf("ablation scale: %d initial + %d arriving downloads (%s each) over %d relays behind %d switches, one trial timed per shard count\n",
			p.InitialCircuits, p.Arrivals, p.TransferSize, p.Relays, p.Switches)
		return res.WriteText(os.Stdout)
	default:
		return fmt.Errorf("unknown ablation %q", *name)
	}
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

func printAblation(rows []experiments.AblationRow) error {
	tbl := traceio.NewTable("configuration", "exit_cwnd", "optimal", "peak", "settle", "final")
	for _, r := range rows {
		settle := "never"
		if r.SettleTime >= 0 {
			settle = r.SettleTime.String()
		}
		tbl.AddRowf(r.Label, r.ExitCwnd, r.OptimalCells, r.PeakCells, settle, r.FinalCells)
	}
	return tbl.WriteText(os.Stdout)
}

func runDynamic(args []string) error {
	fs := flag.NewFlagSet("dynamic", flag.ExitOnError)
	before := fs.Float64("before", 8, "bottleneck rate before the step [Mbit/s]")
	after := fs.Float64("after", 40, "bottleneck rate after the step [Mbit/s]")
	restart := fs.Int("restart", 3, "re-probe threshold in rounds (-1 disables the extension)")
	seed := fs.Int64("seed", 42, "experiment seed")
	stopProfiles, err := parseProfiled(fs, args)
	if err != nil {
		return err
	}
	defer stopProfiles()

	r, err := experiments.ExtensionDynamicRestart(experiments.DynamicRestartParams{
		Seed:          *seed,
		BeforeRate:    units.Mbps(*before),
		AfterRate:     units.Mbps(*after),
		StepAt:        sim.Second,
		Horizon:       5 * sim.Second,
		RestartRounds: *restart,
	})
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

func runScenario(args []string) error {
	fs := flag.NewFlagSet("scenario", flag.ExitOnError)
	arms := fs.String("arms", "circuitstart,backtap", "comma-separated policy arms")
	circuits := fs.Int("circuits", 50, "concurrent circuits")
	relays := fs.Int("relays", 40, "relay population size")
	hops := fs.Int("hops", 3, "relays per circuit")
	size := fs.Int64("size", 500_000, "transfer size per circuit [bytes]")
	seed := fs.Int64("seed", 42, "experiment seed")
	reps := fs.Int("reps", 1, "replications per arm (independent seed substreams)")
	workers := fs.Int("workers", 0, "trial worker pool size (0 = one per CPU)")
	spread := fs.Duration("spread", 200*time.Millisecond, "uniform start stagger window")
	poisson := fs.Float64("poisson", 0, "Poisson arrival rate per second (overrides -spread)")
	download := fs.Bool("download", false, "run transfers in the download (server → client) direction")
	horizon := fs.Duration("horizon", 600*time.Second, "per-trial virtual time bound")
	train := fs.Int("train", 0, "cell-train coalescing cap per link (≤1 = one event per cell)")
	switches := fs.Int("switches", 0, "home the relays behind a backbone ring of this many switches (0 = star topology)")
	shards := fs.Int("shards", 0, "partition each trial across this many shard clocks (0 = single clock; needs -switches)")
	faultArg := fs.String("faults", "", "fault plan: a preset name ("+strings.Join(faults.PresetNames(), ", ")+") or a JSON spec file")
	csvPath := fs.String("csv", "", "write every arm's TTLB CDF as CSV")
	stopProfiles, err := parseProfiled(fs, args)
	if err != nil {
		return err
	}
	defer stopProfiles()

	var armSpecs []scenario.Arm
	for _, policy := range strings.Split(*arms, ",") {
		policy = strings.TrimSpace(policy)
		if policy == "" {
			continue
		}
		armSpecs = append(armSpecs, scenario.Arm{
			Name:      policy,
			Transport: core.TransportOptions{Policy: policy},
		})
	}
	arrival := scenario.Arrival{Kind: scenario.ArriveUniform, Spread: *spread}
	if *poisson > 0 {
		arrival = scenario.Arrival{Kind: scenario.ArrivePoisson, Rate: *poisson}
	} else if *spread <= 0 {
		arrival = scenario.Arrival{}
	}
	pop := workload.DefaultRelayParams(*relays)
	sc := scenario.Scenario{
		Name:     "cli-sweep",
		Seed:     *seed,
		Topology: scenario.Topology{Population: &pop},
		Circuits: scenario.CircuitSet{
			Count:        *circuits,
			Hops:         *hops,
			TransferSize: units.DataSize(*size),
			Download:     *download,
			Arrival:      arrival,
		},
		Arms:         armSpecs,
		Horizon:      sim.Time(*horizon),
		Replications: *reps,
		TrainSize:    *train,
		Shards:       *shards,
	}
	if *switches > 0 {
		bp := workload.DefaultBackboneParams(*relays, *switches)
		spec, err := workload.GenerateBackbone(bp)
		if err != nil {
			return err
		}
		sc.Topology.Fabric = &spec
	} else if *shards > 0 {
		return fmt.Errorf("-shards needs a routed backbone: set -switches > 0")
	}
	if *faultArg != "" {
		plan, err := resolveFaults(*faultArg, sc.RelayIDs())
		if err != nil {
			return err
		}
		sc.Faults = plan
	}
	res, err := scenario.Runner{Workers: *workers}.Run(sc)
	if err != nil {
		return err
	}

	fmt.Printf("scenario: %d circuits × %d arms × %d reps over %d relays, %s each\n",
		*circuits, len(res.Arms), *reps, *relays, units.DataSize(*size))
	for _, arm := range res.Arms {
		if arm.Incomplete > 0 {
			fmt.Printf("  warning: %s left %d transfers incomplete\n", arm.Name, arm.Incomplete)
		}
	}
	if err := res.WriteText(os.Stdout); err != nil {
		return err
	}

	if *csvPath != "" {
		dists := make([]*metrics.Distribution, len(res.Arms))
		for i := range res.Arms {
			dists[i] = res.Arms[i].TTLB
		}
		return writeCSV(*csvPath, func(f *os.File) error {
			return traceio.WriteCDFCSV(f, dists...)
		})
	}
	return nil
}

// resolveFaults renders a -faults argument into a Plan: a preset name
// (rendered against the scenario's relay set) or a path to a JSON fault
// spec file. Preset names win, so a stray file named "burstloss" in the
// working directory cannot shadow the preset silently.
func resolveFaults(arg string, relays []netem.NodeID) (faults.Plan, error) {
	if plan, err := faults.Preset(arg, relays); err == nil {
		return plan, nil
	}
	data, err := os.ReadFile(arg)
	if err != nil {
		return faults.Plan{}, fmt.Errorf("-faults %q is neither a preset (%s) nor a readable spec file: %w",
			arg, strings.Join(faults.PresetNames(), ", "), err)
	}
	return faults.ParseSpec(data)
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

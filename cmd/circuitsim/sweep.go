package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"circuitstart/internal/spec"
	"circuitstart/internal/sweep"
)

// dimFlagDefs declares the sweep CLI's dimension flags. Each flag name
// must match its spec.Dim JSON field modulo unit suffixes — the drift
// test (TestSweepFlagsMatchSpecFields) enforces the bijection, so the
// CLI and the wire schema cannot wander apart.
var dimFlagDefs = []struct {
	flag  string // CLI flag name
	field string // spec.Dim JSON field it fills
	usage string
}{
	{"policies", "policies", "dimension: startup policies (comma-separated)"},
	{"hopcounts", "hopcounts", "dimension: relays per circuit (comma-separated)"},
	{"bandwidths", "bandwidths_mbps", "dimension: bottleneck access rate [Mbit/s] (trace) or population median (population)"},
	{"gammas", "gammas", "dimension: γ exit thresholds (comma-separated)"},
	{"sizes", "sizes_bytes", "dimension: transfer sizes [bytes] (comma-separated)"},
	{"sizedists", "size_dists", "dimension: transfer-size distributions (comma-separated; e.g. lognormal:500000:0.8)"},
	{"counts", "counts", "dimension: concurrent circuit counts (comma-separated)"},
	{"trains", "trains", "dimension: cell-train coalescing caps (comma-separated; ≤1 = untrained)"},
	{"shardcounts", "shardcounts", "dimension: trial shard counts (comma-separated; needs -switches)"},
	{"faults", "faults", "dimension: fault presets (comma-separated)"},
	{"schedulers", "schedulers", "dimension: relay circuit schedulers (comma-separated; fifo, ewma)"},
	{"seeds", "seeds", "dimension: independent base seeds (comma-separated)"},
}

// baseFlagFields maps each base flag to the spec.Base JSON field it
// fills — the drift test walks this table too.
var baseFlagFields = map[string]string{
	"base":     "kind",
	"seed":     "", // File.Seed, not a base field
	"arms":     "arms",
	"hops":     "hops",
	"distance": "distance",
	"relays":   "relays",
	"circuits": "circuits",
	"switches": "switches",
	"size":     "size_bytes",
	"sizedist": "size_dist",
	"download": "download",
	"horizon":  "horizon_sec",
	"spread":   "spread_ms",
}

// runSweep drives the declarative grid engine from the command line: a
// base scenario (the single-circuit trace topology or a generated
// relay population) crossed with the dimension flags, or an arbitrary
// grid from a versioned spec file (internal/spec — the same schema the
// serve daemon accepts). Per-point rows stream to -out (CSV or JSON
// lines, by extension); the in-memory table's summary prints to
// stdout. Grid order — and therefore the output bytes — is identical
// for any -workers value. With -remote the sweep executes on a
// `circuitsim serve` daemon instead, with byte-identical outputs.
func runSweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	specPath := fs.String("spec", "", "JSON grid spec file (overrides the flag-built grid; see DESIGN.md)")
	base := fs.String("base", "trace", "flag-built grid base: trace | population")
	seed := fs.Int64("seed", 42, "experiment seed (shared by every grid point)")
	arms := fs.String("arms", "circuitstart", "comma-separated base policy arms")
	hops := fs.Int("hops", 3, "relays per circuit of the base (trace: also the path length)")
	distance := fs.Int("distance", 3, "bottleneck distance in hops (trace base)")
	relays := fs.Int("relays", 40, "relay population size (population base)")
	circuits := fs.Int("circuits", 50, "concurrent circuits (population base)")
	switches := fs.Int("switches", 0, "home the population behind a backbone ring of this many switches (population base; 0 = star)")
	size := fs.Int64("size", 500_000, "transfer size per circuit [bytes] (population base)")
	sizeDist := fs.String("sizedist", "", "transfer-size distribution (population base; overrides -size; e.g. pareto:100000:1.2:10000000)")
	download := fs.Bool("download", false, "run transfers server → client through the onion (population base)")
	horizon := fs.Duration("horizon", 600*time.Second, "per-trial virtual time bound (population base)")
	spread := fs.Duration("spread", 200*time.Millisecond, "uniform start stagger window (population base)")
	dimFlags := make([]*string, len(dimFlagDefs))
	for i, def := range dimFlagDefs {
		dimFlags[i] = fs.String(def.flag, "", def.usage)
	}
	sample := fs.Int("sample", 0, "cap the grid to a seeded sample of this many points (0 = full)")
	resume := fs.Int("resume", 0, "skip grid points with index below this (append to a prior -out)")
	workers := fs.Int("workers", 0, "concurrent grid points (0 = one per CPU)")
	pointWorkers := fs.Int("point-workers", 0, "worker pool per point's runner (0 = 1)")
	remote := fs.String("remote", "", "run on a circuitsim serve daemon at this base URL instead of in-process")
	outPath := fs.String("out", "", "stream per-point rows to this file (.csv or .jsonl)")
	format := fs.String("format", "", "output format: csv | jsonl (default: by -out extension)")
	stopProfiles, err := parseProfiled(fs, args)
	if err != nil {
		return err
	}
	defer stopProfiles()

	var file *spec.File
	if *specPath != "" {
		data, rerr := os.ReadFile(*specPath)
		if rerr != nil {
			return rerr
		}
		file, err = spec.Parse(data)
	} else {
		file, err = specFromFlags(fs, *base, *seed, splitList(*arms), *hops, *distance,
			*relays, *circuits, *switches, *size, *sizeDist, *download,
			*horizon, *spread, *sample, dimFlags)
	}
	if err != nil {
		return err
	}

	fmtName := ""
	if *outPath != "" {
		fmtName = pickFormat(*format, *outPath)
		if fmtName != "csv" && fmtName != "jsonl" {
			if *format != "" {
				return fmt.Errorf("unknown -format %q (want csv or jsonl)", *format)
			}
			return fmt.Errorf("cannot infer output format from %q; pass -format csv|jsonl", *outPath)
		}
	}

	if *remote != "" {
		if *resume > 0 {
			return fmt.Errorf("-resume is local-only (the daemon's point cache already skips completed points)")
		}
		return runSweepRemote(*remote, file, *outPath, fmtName)
	}

	sw, err := file.Sweep()
	if err != nil {
		return err
	}

	var sinks []sweep.Sink
	if *outPath != "" {
		// Resuming into an existing file appends the remaining rows
		// after the completed prefix (no second header); everything
		// else starts a fresh file.
		appendRows := false
		if *resume > 0 {
			if fi, err := os.Stat(*outPath); err == nil && fi.Size() > 0 {
				appendRows = true
			}
		}
		flags := os.O_CREATE | os.O_WRONLY | os.O_TRUNC
		if appendRows {
			flags = os.O_WRONLY | os.O_APPEND
		}
		f, ferr := os.OpenFile(*outPath, flags, 0o644)
		if ferr != nil {
			return ferr
		}
		defer f.Close()
		switch {
		case fmtName == "csv" && appendRows:
			sinks = append(sinks, sweep.NewCSVAppendSink(f))
		case fmtName == "csv":
			sinks = append(sinks, sweep.NewCSVSink(f))
		case appendRows:
			sinks = append(sinks, sweep.NewJSONLAppendSink(f))
		default:
			sinks = append(sinks, sweep.NewJSONLSink(f))
		}
	}

	eng := sweep.Engine{Workers: *workers, PointWorkers: *pointWorkers, Resume: *resume}
	tbl, err := eng.Run(sw, sinks...)
	if err != nil {
		return err
	}

	if err := tbl.WriteSummary(os.Stdout); err != nil {
		return err
	}
	if *outPath != "" {
		fmt.Printf("rows written to %s\n", *outPath)
	}
	return nil
}

// specFromFlags renders the flag-built grid into the same spec.File a
// spec file or HTTP body parses to — one code path from either front
// door to the engine. Flags the user left at their default are omitted
// when they don't apply to the base kind, so `-base trace` doesn't
// trip the population-field validation.
func specFromFlags(fs *flag.FlagSet, kind string, seed int64, arms []string,
	hops, distance, relays, circuits, switches int, size int64, sizeDist string,
	download bool, horizon, spread time.Duration, sample int, dimFlags []*string) (*spec.File, error) {

	changed := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { changed[f.Name] = true })
	if changed["arms"] && len(arms) == 0 {
		return nil, fmt.Errorf("sweep: -arms named no policies")
	}

	f := &spec.File{
		Version: spec.Version,
		Name:    "cli-sweep",
		Seed:    &seed,
		Base:    spec.Base{Kind: kind, Arms: arms, Hops: hops},
		Sample:  sample,
	}
	switch kind {
	case "population":
		f.Base.Relays = relays
		f.Base.Circuits = circuits
		f.Base.Switches = switches
		f.Base.Download = download
		f.Base.HorizonSec = horizon.Seconds()
		spreadMs := float64(spread) / float64(time.Millisecond)
		f.Base.SpreadMs = &spreadMs
		if sizeDist != "" {
			f.Base.SizeDist = sizeDist
		} else {
			f.Base.SizeBytes = size
		}
	default:
		// The trace base rejects population fields by name; only carry
		// the ones the user actually set, so defaults don't trip it.
		f.Base.Distance = distance
		for _, flagName := range []string{"relays", "circuits", "switches", "size", "sizedist", "download", "spread"} {
			if changed[flagName] {
				return nil, fmt.Errorf("sweep: -%s applies only to -base population", flagName)
			}
		}
		if changed["horizon"] {
			f.Base.HorizonSec = horizon.Seconds()
		}
	}

	for i, def := range dimFlagDefs {
		raw := splitList(*dimFlags[i])
		if len(raw) == 0 {
			continue
		}
		var d spec.Dim
		var err error
		switch def.field {
		case "gammas":
			d.Gammas, err = parseFloats(raw)
		case "policies":
			d.Policies = raw
		case "bandwidths_mbps":
			d.BandwidthsMbps, err = parseFloats(raw)
		case "hopcounts":
			d.HopCounts, err = parseInts(raw)
		case "sizes_bytes":
			d.SizesBytes, err = parseInt64s(raw)
		case "size_dists":
			d.SizeDists = raw
		case "counts":
			d.Counts, err = parseInts(raw)
		case "trains":
			d.Trains, err = parseInts(raw)
		case "shardcounts":
			d.ShardCounts, err = parseInts(raw)
		case "faults":
			d.Faults = raw
		case "schedulers":
			d.Schedulers = raw
		case "seeds":
			d.Seeds, err = parseInt64s(raw)
		}
		if err != nil {
			return nil, fmt.Errorf("sweep: -%s: %w", def.flag, err)
		}
		f.Dimensions = append(f.Dimensions, d)
	}
	if len(f.Dimensions) == 0 {
		names := make([]string, len(dimFlagDefs))
		for i, def := range dimFlagDefs {
			names[i] = "-" + def.flag
		}
		return nil, fmt.Errorf("sweep: no dimensions (pass at least one of %s, or a -spec file)", strings.Join(names, ", "))
	}

	// Round-trip through the canonical codec: the flag grid gets the
	// identical validation and defaults a spec file or HTTP body gets.
	data, err := spec.Marshal(f)
	if err != nil {
		return nil, err
	}
	return spec.Parse(data)
}

// pickFormat resolves the output format from -format or the extension.
func pickFormat(format, path string) string {
	if format != "" {
		return format
	}
	switch strings.ToLower(filepath.Ext(path)) {
	case ".csv":
		return "csv"
	case ".jsonl", ".ndjson":
		return "jsonl"
	}
	return ""
}

// splitList splits a comma-separated flag, dropping empty entries.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part != "" {
			out = append(out, part)
		}
	}
	return out
}

func parseFloats(raw []string) ([]float64, error) {
	out := make([]float64, len(raw))
	for i, r := range raw {
		v, err := strconv.ParseFloat(r, 64)
		if err != nil {
			return nil, fmt.Errorf("bad value %q", r)
		}
		out[i] = v
	}
	return out, nil
}

func parseInts(raw []string) ([]int, error) {
	out := make([]int, len(raw))
	for i, r := range raw {
		v, err := strconv.Atoi(r)
		if err != nil {
			return nil, fmt.Errorf("bad value %q", r)
		}
		out[i] = v
	}
	return out, nil
}

func parseInt64s(raw []string) ([]int64, error) {
	out := make([]int64, len(raw))
	for i, r := range raw {
		v, err := strconv.ParseInt(r, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad value %q", r)
		}
		out[i] = v
	}
	return out, nil
}

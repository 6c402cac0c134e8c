// Command benchmark is the repository's one repeatable benchmark: seven
// workloads from the per-cell event path to the sweep daemon, measured
// end to end with tracing off, and a traced run that prices every layer
// from outside. See README.md and ../BENCHMARK.json.
//
// Run from the repository root:
//
//	go run -C benchmark . --workload fig1_cdf --seed 42 --seconds 10 --trace 0
//	go run -C benchmark .                      # every workload, end to end
//	go run -C benchmark . --trace 1            # every workload, traced
//	go run -C benchmark . -compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

func main() {
	workload := flag.String("workload", "", "workload to run (default: all seven)")
	seed := flag.Int64("seed", 42, "input seed; 7 is the held-out seed for validating claims")
	seconds := flag.Float64("seconds", 10, "how long each workload's timed section measures")
	trace := flag.Int("trace", 0, "1 records spans and prints the per-layer metrics instead")
	record := flag.String("o", "", "append each run's full record to this JSON-lines file, for -compare")
	compare := flag.Bool("compare", false, "compare two -o files: -compare a.jsonl b.jsonl")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: -compare a.jsonl b.jsonl")
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal("%v", err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	// Workers, shards and connections never exceed the CPU count; pin
	// GOMAXPROCS to it so a container quota the runtime cannot see
	// (Go ≤ 1.24) at least does not vary between runs.
	runtime.GOMAXPROCS(runtime.NumCPU())

	selected := workloads
	if *workload != "" {
		w, ok := workloadByName(*workload)
		if !ok {
			fatal("unknown workload %q", *workload)
		}
		selected = []workloadDef{w}
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace != 0, sizes: benchSizes, setups: setupRuns}
	if cfg.trace {
		cfg.setups = 1 // setup_s is not a per-layer metric
	}

	correct := true
	for _, w := range selected {
		res := runWorkload(w, cfg)
		res.report(os.Stdout)
		if *record != "" {
			if err := appendRecord(*record, res); err != nil {
				fatal("%v", err)
			}
		}
		// The last line of a single-workload run is the result object
		// the driver reads.
		line, err := json.Marshal(struct {
			Correct   bool              `json:"correct"`
			Attempted int               `json:"attempted"`
			Failed    int               `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}{res.Correct, res.Attempted, res.Failed, res.Metrics})
		if err != nil {
			fatal("%v", err)
		}
		fmt.Println(string(line))
		correct = correct && res.Correct
	}
	if !correct {
		os.Exit(1)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

func appendRecord(path string, res runResult) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(res); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

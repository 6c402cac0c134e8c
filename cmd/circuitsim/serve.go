package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"circuitstart/internal/serve"
	"circuitstart/internal/spec"
)

// runServe starts the sweep service daemon: the HTTP front door to the
// same grid engine the sweep subcommand drives in-process. See
// internal/serve for the endpoint contract.
func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8311", "listen address")
	jobs := fs.Int("jobs", 1, "sweeps executing concurrently")
	queue := fs.Int("queue", 16, "submitted sweeps waiting beyond the running ones")
	workers := fs.Int("workers", 0, "concurrent grid points per sweep (0 = one per CPU)")
	pointWorkers := fs.Int("point-workers", 0, "worker pool per point's runner (0 = 1)")
	cachePoints := fs.Int("cache", 4096, "completed grid points to retain for replay (0 = default, negative disables)")
	stopProfiles, err := parseProfiled(fs, args)
	if err != nil {
		return err
	}
	defer stopProfiles()
	opts := serve.Options{
		Jobs:         *jobs,
		QueueDepth:   *queue,
		SweepWorkers: *workers,
		PointWorkers: *pointWorkers,
		CachePoints:  *cachePoints,
	}
	fmt.Printf("circuitsim serve: listening on http://%s (spec API v%d)\n", *addr, spec.Version)
	// Return on SIGINT/SIGTERM instead of dying to it, so the deferred
	// profile stop runs; the serving goroutine ends with the process.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	failed := make(chan error, 1)
	go func() { failed <- serve.ListenAndServe(*addr, opts) }()
	select {
	case err := <-failed:
		return err
	case <-sig:
		return nil
	}
}

// runSpecCmd validates and canonicalizes sweep spec files. A valid
// spec prints in canonical form (the Marshal∘Parse fixed point) so it
// can be committed, diffed, and hashed stably; -validate only reports.
func runSpecCmd(args []string) error {
	fs := flag.NewFlagSet("spec", flag.ExitOnError)
	validate := fs.Bool("validate", false, "only validate; print a summary instead of the canonical spec")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("spec: want exactly one spec file argument")
	}
	path := fs.Arg(0)
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	f, err := spec.Parse(data)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if *validate {
		sw, err := f.Sweep()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		pts, err := sw.Points()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		hash, err := f.BaseHash()
		if err != nil {
			return err
		}
		fmt.Printf("%s: ok — %q, %d points over %d dimensions (grid %d), base hash %s\n",
			path, sw.Name, len(pts), len(sw.Dimensions), sw.Size(), hash[:12])
		return nil
	}
	out, err := spec.Marshal(f)
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(out)
	return err
}

// runSweepRemote executes the sweep on a `circuitsim serve` daemon:
// POST the spec, follow the row stream byte-for-byte into -out (or
// discard it) until the job is terminal, then read its status once and
// print the daemon's text summary — the same bytes the local path
// would produce, which the CI smoke job pins with cmp. A failed or
// cancelled job leaves the rows it emitted in -out, as a local run
// does.
func runSweepRemote(baseURL string, f *spec.File, outPath, format string) error {
	baseURL = strings.TrimRight(baseURL, "/")
	if !strings.Contains(baseURL, "://") {
		baseURL = "http://" + baseURL
	}
	body, err := spec.Marshal(f)
	if err != nil {
		return err
	}
	client := &http.Client{}

	resp, err := client.Post(baseURL+"/v1/sweeps", "application/json", strings.NewReader(string(body)))
	if err != nil {
		return err
	}
	var status struct {
		ID       string `json:"id"`
		State    string `json:"state"`
		Emitted  int    `json:"emitted"`
		Cached   int    `json:"cached"`
		Computed int    `json:"computed"`
		Error    string `json:"error"`
	}
	if err := decodeOrError(resp, &status); err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	statusURL := baseURL + "/v1/sweeps/" + status.ID

	// The rows stream ends when the job is terminal, so following it is
	// the wait.
	if err := followRows(client, statusURL+"/rows", outPath, format); err != nil {
		return err
	}
	resp, err = client.Get(statusURL)
	if err != nil {
		return err
	}
	if err := decodeOrError(resp, &status); err != nil {
		return fmt.Errorf("status: %w", err)
	}
	switch status.State {
	case "failed":
		return fmt.Errorf("remote sweep %s failed: %s", status.ID, status.Error)
	case "cancelled":
		return fmt.Errorf("remote sweep %s was cancelled", status.ID)
	}

	req, err := http.NewRequest(http.MethodGet, statusURL+"/summary", nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", "text/plain")
	resp, err = client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("summary: %s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
	if _, err := io.Copy(os.Stdout, resp.Body); err != nil {
		return err
	}
	if outPath != "" {
		fmt.Printf("rows written to %s\n", outPath)
	}
	if status.Cached > 0 {
		fmt.Printf("(%d of %d points replayed from the daemon's cache)\n", status.Cached, status.Emitted)
	}
	return nil
}

// followRows streams a job's rows into outPath, or discards them when
// there is no -out, until the daemon ends the stream.
func followRows(client *http.Client, rowsURL, outPath, format string) error {
	req, err := http.NewRequest(http.MethodGet, rowsURL, nil)
	if err != nil {
		return err
	}
	accept := "text/csv"
	if format == "jsonl" {
		accept = "application/x-ndjson"
	}
	req.Header.Set("Accept", accept)
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("rows: %s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
	if outPath == "" {
		_, err := io.Copy(io.Discard, resp.Body)
		return err
	}
	out, err := os.Create(outPath)
	if err != nil {
		return err
	}
	_, cerr := io.Copy(out, resp.Body)
	if err := out.Close(); cerr == nil {
		cerr = err
	}
	return cerr
}

// decodeOrError decodes a JSON response body into v, turning non-2xx
// responses into errors carrying the daemon's {"error": ...} message.
func decodeOrError(resp *http.Response, v any) error {
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			return fmt.Errorf("%s: %s", resp.Status, e.Error)
		}
		return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(data)))
	}
	return json.Unmarshal(data, v)
}

package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"circuitstart/internal/serve"
)

// TestRunSweepRemoteMatchesLocal pins the acceptance contract at the
// CLI surface: `sweep -remote` against a serve daemon writes the same
// row bytes as the in-process `sweep` for the same grid — and a second
// remote run replays the daemon's cache, still byte-identically.
func TestRunSweepRemoteMatchesLocal(t *testing.T) {
	s := serve.NewServer(serve.Options{})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()

	dir := t.TempDir()
	local, remote, replay := filepath.Join(dir, "local.csv"), filepath.Join(dir, "remote.csv"), filepath.Join(dir, "replay.csv")
	grid := []string{"-gammas", "2,4", "-bandwidths", "8,16"}

	if err := runSweep(append([]string{"-out", local}, grid...)); err != nil {
		t.Fatal(err)
	}
	if err := runSweep(append([]string{"-remote", ts.URL, "-out", remote}, grid...)); err != nil {
		t.Fatal(err)
	}
	if err := runSweep(append([]string{"-remote", ts.URL, "-out", replay}, grid...)); err != nil {
		t.Fatal(err)
	}

	want, err := os.ReadFile(local)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(remote)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("remote rows differ from local:\n--- remote ---\n%s--- local ---\n%s", got, want)
	}
	rep, err := os.ReadFile(replay)
	if err != nil {
		t.Fatal(err)
	}
	if string(rep) != string(want) {
		t.Fatalf("cache-replayed rows differ from local:\n--- replay ---\n%s--- local ---\n%s", rep, want)
	}
}

// TestRunSweepRemoteCancelled cancels a remote job mid-run: the client
// reports the cancellation, and -out keeps exactly the rows the job
// emitted before it stopped — the daemon's own stream, byte for byte.
func TestRunSweepRemoteCancelled(t *testing.T) {
	s := serve.NewServer(serve.Options{SweepWorkers: 1, CachePoints: -1})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()

	out := filepath.Join(t.TempDir(), "cancelled.csv")
	errc := make(chan error, 1)
	go func() {
		errc <- runSweep([]string{"-remote", ts.URL, "-out", out, "-gammas", "1,2,4,8", "-seeds", "1,2,3,4"})
	}()

	// Cancel the job once it has emitted a row.
	var id string
	deadline := time.Now().Add(30 * time.Second)
	for {
		var list struct {
			Sweeps []struct {
				ID      string `json:"id"`
				Emitted int    `json:"emitted"`
			} `json:"sweeps"`
		}
		if err := json.Unmarshal(get(t, ts.URL+"/v1/sweeps"), &list); err != nil {
			t.Fatal(err)
		}
		if len(list.Sweeps) == 1 && list.Sweeps[0].Emitted > 0 {
			id = list.Sweeps[0].ID
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the remote job never emitted a row")
		}
		time.Sleep(5 * time.Millisecond)
	}
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sweeps/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	if err := <-errc; err == nil || !strings.Contains(err.Error(), "was cancelled") {
		t.Fatalf("cancelled remote sweep returned %v, want the cancellation error", err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	want := get(t, ts.URL+"/v1/sweeps/"+id+"/rows")
	if string(got) != string(want) {
		t.Fatalf("-out differs from the cancelled job's rows:\n--- -out ---\n%s--- daemon ---\n%s", got, want)
	}
	if rows := strings.Count(string(got), "\n") - 1; rows < 1 || rows >= 16 {
		t.Errorf("-out holds %d rows, want a proper prefix of the 16-point grid", rows)
	}
}

// get fetches a URL and returns its body.
func get(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestRunSweepRemoteRejects checks the client-side error paths.
func TestRunSweepRemoteRejects(t *testing.T) {
	if err := runSweep([]string{"-remote", "127.0.0.1:1", "-resume", "2", "-gammas", "2"}); err == nil {
		t.Error("-remote with -resume accepted")
	}
	if err := runSweep([]string{"-remote", "127.0.0.1:1", "-gammas", "2"}); err == nil {
		t.Error("unreachable daemon reported success")
	}
}

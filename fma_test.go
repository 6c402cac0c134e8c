package circuitstart_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// fusedOp matches an arm64 fused multiply-add instruction in a
// `-gcflags=-S` listing and captures its source position.
var fusedOp = regexp.MustCompile(`\((\S+\.go:\d+)\)\s+(FMADDD|FMSUBD|FNMADDD|FNMSUBD)\b`)

// TestNoFusedMultiplyAdd keeps seeded output the same on every GOARCH.
// The Go spec lets a compiler fuse x*y + z into one instruction that
// rounds once; arm64 does, amd64 does not, so a fused site computes
// different bits on the two. The listing of every package on arm64 must
// hold no fused instruction: at each product that feeds a sum, an
// explicit float64(…) conversion rounds the product and stops the
// fusion, as the spec prescribes. `go build` replays cached compiler
// output, listing included, so a warm run takes under a second.
func TestNoFusedMultiplyAdd(t *testing.T) {
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(gobin, "build", "-gcflags=-S", "./internal/...", ".")
	cmd.Env = append(os.Environ(), "GOARCH=arm64", "CGO_ENABLED=0")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("arm64 listing: %v\n%s", err, out)
	}
	sites := map[string]string{} // file:line → an instruction fused there
	for _, m := range fusedOp.FindAllStringSubmatch(string(out), -1) {
		pos := m[1]
		if rel, err := filepath.Rel(root, pos); err == nil && !strings.HasPrefix(rel, "..") {
			pos = rel
		}
		sites[pos] = m[2]
	}
	if len(sites) == 0 {
		return
	}
	list := make([]string, 0, len(sites))
	for pos, op := range sites {
		list = append(list, pos+" "+op)
	}
	sort.Strings(list)
	t.Errorf("%d fused multiply-add sites on arm64; wrap each product in float64(…):\n\t%s",
		len(list), strings.Join(list, "\n\t"))
}

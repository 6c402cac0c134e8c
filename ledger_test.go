package circuitstart_test

import (
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"circuitstart/internal/core"
	"circuitstart/internal/netem"
	"circuitstart/internal/relay"
	"circuitstart/internal/resource"
)

// goName matches a backticked Go name in a ledger row: pkg.Name or
// pkg.Type.Member, exported or not (a mechanism's code need not be
// reached from outside its package).
var goName = regexp.MustCompile("`([a-z]+\\.[A-Za-z]\\w*(?:\\.[A-Za-z]\\w*)?)`")

// fixtureName matches a backticked expected-output file in a ledger
// row's "Experiments and goldens" column, named relative to
// cmd/circuitsim/testdata.
var fixtureName = regexp.MustCompile("`([\\w./-]+\\.txt)`")

// TestMechanismLedger keeps DESIGN.md's mechanism ledger honest, in the
// style of TestSweepFlagsMatchSpecFields: every exported option field
// of the five option structs has a row, every Go name a row's "Go
// names" column cites still exists in internal/, and every file its
// "Experiments and goldens" column cites still exists under
// cmd/circuitsim/testdata.
func TestMechanismLedger(t *testing.T) {
	src, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(src), "\n## Mechanism ledger\n")
	if !ok {
		t.Fatal("DESIGN.md has no \"Mechanism ledger\" section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	if !strings.Contains(section, "**Keep or cut: the rule**") {
		t.Error("the ledger does not open with its keep-or-cut rule")
	}

	declared := repoModule(t).declared()
	cited := map[string]bool{}
	rows, fixtures := 0, 0
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 8 || strings.HasPrefix(line, "|---") || strings.TrimSpace(cells[1]) == "Mechanism" {
			continue
		}
		rows++
		for _, m := range goName.FindAllStringSubmatch(cells[2], -1) {
			cited[m[1]] = true
			if !declared[m[1]] {
				t.Errorf("row %q cites %s, which internal/ does not declare", strings.TrimSpace(cells[1]), m[1])
			}
		}
		for _, m := range fixtureName.FindAllStringSubmatch(cells[4], -1) {
			fixtures++
			if _, err := os.Stat(filepath.Join("cmd/circuitsim/testdata", m[1])); err != nil {
				t.Errorf("row %q cites %s, which cmd/circuitsim/testdata does not hold", strings.TrimSpace(cells[1]), m[1])
			}
		}
	}
	if rows == 0 || fixtures == 0 {
		t.Fatalf("found %d ledger rows citing %d fixtures", rows, fixtures)
	}

	for _, v := range []any{
		core.TransportOptions{}, relay.Config{}, resource.Limits{},
		netem.LinkConfig{}, netem.AccessConfig{},
	} {
		typ := reflect.TypeOf(v)
		pkg := filepath.Base(typ.PkgPath())
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() {
				if name := pkg + "." + typ.Name() + "." + f.Name; !cited[name] {
					t.Errorf("option %s has no ledger row", name)
				}
			}
		}
	}
}

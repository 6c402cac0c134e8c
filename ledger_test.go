package circuitstart_test

import (
	"go/ast"
	"go/parser"
	"go/token"
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
// pkg.Type.Member.
var goName = regexp.MustCompile("`([a-z]+\\.[A-Z]\\w*(?:\\.[A-Z]\\w*)?)`")

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

	declared := declaredNames(t)
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

// declaredNames parses the non-test files of every internal package and
// returns the names a ledger row may cite: pkg.Name for package-level
// declarations, pkg.Type.Field and pkg.Type.Method for struct fields and
// methods.
func declaredNames(t *testing.T) map[string]bool {
	t.Helper()
	names := map[string]bool{}
	dirs, err := filepath.Glob("internal/*")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, dir := range dirs {
		files, _ := filepath.Glob(filepath.Join(dir, "*.go"))
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			pkg := f.Name.Name
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						names[pkg+"."+d.Name.Name] = true
						continue
					}
					recv := d.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					if id, ok := recv.(*ast.Ident); ok {
						names[pkg+"."+id.Name+"."+d.Name.Name] = true
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							names[pkg+"."+spec.Name.Name] = true
							st, ok := spec.Type.(*ast.StructType)
							if !ok {
								continue
							}
							for _, field := range st.Fields.List {
								for _, n := range field.Names {
									names[pkg+"."+spec.Name.Name+"."+n.Name] = true
								}
							}
						case *ast.ValueSpec:
							for _, n := range spec.Names {
								names[pkg+"."+n.Name] = true
							}
						}
					}
				}
			}
		}
	}
	return names
}

package circuitstart_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

// TestExportedNamesAreReached holds the exported surface of internal/ to
// what other packages use. An exported top-level name or method in a
// non-test internal/ file passes if
//   - another package's non-test code uses it (benchmark/ counts until
//     ROADMAP item 20(c) narrows what it reaches);
//   - it is a method that implements an interface its type satisfies,
//     declared in this module or in a standard package the module
//     imports, or error;
//   - it is a type that appears in the signature, type or exported
//     fields of a passing name, so it flows out with that name;
//   - its doc comment says "Test-only:" and names a Test, Fuzz or
//     Example function or a ROADMAP item that exists.
//
// A name that fails is unexported when only its own package uses it,
// deleted when nothing does, or cited. A name another package reaches
// must not say "Test-only:".
func TestExportedNamesAreReached(t *testing.T) {
	m := repoModule(t)
	s := checkSurface(m)
	for _, f := range s.failures() {
		t.Error(f)
	}
	s.logCounts(t)
}

// TestExportedNamesCheckerFixture runs the check over a fixture module
// that plants one name of each kind: a failing name must be reported
// with its file:line and pkg.Name, and a passing one must pass for the
// expected reason.
func TestExportedNamesCheckerFixture(t *testing.T) {
	const root = "testdata/surface"
	m, err := loadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	s := checkSurface(m)
	failures := s.failures()
	src, err := os.ReadFile(filepath.Join(root, "internal/lib/lib.go"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(src), "\n")

	for _, tc := range []struct {
		name, key   string
		decl, fails string // the failing names: declaration, reason
		passes      reach
	}{
		{name: "unreached func", key: "lib.Unreached", decl: "func Unreached(", fails: "no other package's non-test code reaches it"},
		{name: "citation of a missing test", key: "lib.MissingTest", decl: "func MissingTest(", fails: "cites TestNoSuchTest, which no test file declares"},
		{name: "citation of a missing ROADMAP item", key: "lib.MissingItem", decl: "func MissingItem(", fails: "cites ROADMAP item 99, which ROADMAP.md does not list"},
		{name: "Test-only on a reached name", key: "lib.Stale", decl: "func Stale(", fails: `says "Test-only:", but it is reached`},
		{name: "method reached through an interface", key: "lib.square.Area", passes: reachInterface},
		{name: "method reached through a standard interface", key: "lib.square.String", passes: reachInterface},
		{name: "generic method reached through an instantiation", key: "lib.Stack.Push", passes: reachUsed},
		{name: "type only in a reached signature", key: "lib.Point", passes: reachFlows},
		{name: "citation of a test and an item that exist", key: "lib.Cited", passes: reachCited},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var got []string
			for _, f := range failures {
				if strings.Contains(f, ": "+tc.key+": ") {
					got = append(got, f)
				}
			}
			if tc.fails == "" {
				if len(got) > 0 {
					t.Fatalf("%s should pass; the check reports %q", tc.key, got)
				}
				for _, e := range s.names {
					if e.key == tc.key {
						if e.reach != tc.passes {
							t.Errorf("%s passes as %s, want %s", tc.key, reachLabels[e.reach], reachLabels[tc.passes])
						}
						return
					}
				}
				t.Fatalf("the check never saw %s", tc.key)
			}
			line := 0
			for i, l := range lines {
				if strings.HasPrefix(l, tc.decl) {
					line = i + 1
				}
			}
			want := fmt.Sprintf("internal/lib/lib.go:%d: %s: ", line, tc.key)
			if len(got) != 1 || !strings.HasPrefix(got[0], want) || !strings.Contains(got[0], tc.fails) {
				t.Errorf("the check reports %q; want one line starting %q and saying %q", got, want, tc.fails)
			}
		})
	}
	if len(failures) != 4 {
		t.Errorf("the fixture plants 4 failing names; the check reports %d:\n%s", len(failures), strings.Join(failures, "\n"))
	}
}

// repoModule returns the repository's module, type-checked once and
// shared by every test that reads its declarations.
func repoModule(t *testing.T) *module {
	t.Helper()
	repoOnce.Do(func() { repoMod, repoErr = loadModule(".") })
	if repoErr != nil {
		t.Fatal(repoErr)
	}
	return repoMod
}

var (
	repoOnce sync.Once
	repoMod  *module
	repoErr  error
)

// The standard library is type-checked from source, once per test
// binary, into one file set every module load shares.
var (
	stdFset     = token.NewFileSet()
	stdImporter = importer.ForCompiler(stdFset, "source", nil)
)

// module is the non-test code of every package under a root, the root
// module's and nested modules' alike, type-checked once so that objects
// are shared: a use in one package and a declaration in another are the
// same types.Object.
type module struct {
	root, path string // directory, and module path from its go.mod
	pkgs       map[string]*modPackage
	order      []*modPackage // in dependency order
	tests      map[string]bool
	items      map[string]bool // ROADMAP.md's open item numbers
}

type modPackage struct {
	dir   string // slash-separated, relative to the root
	files []*ast.File
	types *types.Package
	info  *types.Info
}

func (p *modPackage) internal() bool {
	return p.dir == "internal" || strings.HasPrefix(p.dir, "internal/")
}

// loadModule type-checks the non-test packages under root and collects
// the names of its Test, Fuzz and Example functions and its ROADMAP
// items. Directories named testdata, and hidden ones, are skipped.
func loadModule(root string) (*module, error) {
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := &module{root: root, pkgs: map[string]*modPackage{}, tests: map[string]bool{}, items: map[string]bool{}}
	for _, line := range strings.Split(string(gomod), "\n") {
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			m.path = strings.TrimSpace(rest)
		}
	}
	if roadmap, err := os.ReadFile(filepath.Join(root, "ROADMAP.md")); err == nil {
		for _, match := range roadmapItem.FindAllStringSubmatch(string(roadmap), -1) {
			m.items[match[1]] = true
		}
	}

	sources := map[string][]string{} // import path → non-test files
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		dir, name := filepath.Split(p)
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			return err
		}
		if strings.HasSuffix(name, "_test.go") {
			return m.readTests(p)
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		ip := path.Join(m.path, filepath.ToSlash(rel))
		sources[ip] = append(sources[ip], p)
		return nil
	})
	if err != nil {
		return nil, err
	}

	imp := &modImporter{m: m, sources: sources}
	paths := make([]string, 0, len(sources))
	for ip := range sources {
		paths = append(paths, ip)
	}
	sort.Strings(paths)
	for _, ip := range paths {
		if _, err := imp.Import(ip); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// readTests records the Test, Fuzz and Example functions of one test
// file.
func (m *module) readTests(p string) error {
	src, err := os.ReadFile(p)
	if err != nil {
		return err
	}
	for _, match := range testFunc.FindAllSubmatch(src, -1) {
		m.tests[string(match[1])] = true
	}
	return nil
}

// modImporter hands out the module's packages, checking each on first
// import, and the standard library's from the shared source importer.
type modImporter struct {
	m       *module
	sources map[string][]string
}

func (imp *modImporter) Import(ip string) (*types.Package, error) {
	m := imp.m
	if p, ok := m.pkgs[ip]; ok {
		if p == nil {
			return nil, fmt.Errorf("import cycle through %s", ip)
		}
		return p.types, nil
	}
	files, ok := imp.sources[ip]
	if !ok {
		return stdImporter.Import(ip)
	}
	m.pkgs[ip] = nil
	p := &modPackage{dir: strings.TrimPrefix(strings.TrimPrefix(ip, m.path), "/")}
	for _, name := range files {
		f, err := parser.ParseFile(stdFset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	p.info = &types.Info{
		Defs: map[*ast.Ident]types.Object{},
		Uses: map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: imp}
	tp, err := conf.Check(ip, stdFset, p.files, p.info)
	if err != nil {
		return nil, err
	}
	p.types = tp
	m.pkgs[ip] = p
	m.order = append(m.order, p)
	return tp, nil
}

// declared returns the names a ledger row may cite: pkg.Name for the
// package-level declarations of every internal package, pkg.Type.Field
// and pkg.Type.Method for struct fields and methods.
func (m *module) declared() map[string]bool {
	names := map[string]bool{}
	for _, p := range m.order {
		if !p.internal() {
			continue
		}
		scope := p.types.Scope()
		for _, n := range scope.Names() {
			names[p.types.Name()+"."+n] = true
			tn, ok := scope.Lookup(n).(*types.TypeName)
			if !ok {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if st, ok := named.Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					names[p.types.Name()+"."+n+"."+st.Field(i).Name()] = true
				}
			}
			for i := 0; i < named.NumMethods(); i++ {
				names[p.types.Name()+"."+n+"."+named.Method(i).Name()] = true
			}
		}
	}
	return names
}

var (
	citedTest   = regexp.MustCompile(`\b(?:Test|Fuzz|Example)[A-Z_]\w*`)
	citedItems  = regexp.MustCompile(`ROADMAP items? (\d+(?:\([a-z]\))?(?:(?:, | and | or )\d+(?:\([a-z]\))?)*)`)
	itemNumber  = regexp.MustCompile(`\d+`)
	roadmapItem = regexp.MustCompile(`(?m)^(\d+)\. \*\*`)
)

// How an exported name is reached, best first; the last two fail.
type reach int

const (
	reachUsed      reach = iota // other packages' non-test code
	reachBenchmark              // only benchmark/
	reachInterface              // a method of a satisfied interface
	reachFlows                  // a type in a passing name's signature
	reachCited                  // "Test-only:" with a citation that exists
	reachNone
	reachBadCitation
)

var reachLabels = [...]string{"used", "benchmark-only", "interface method", "flows out", "test-only", "unreached", "bad citation"}

type exported struct {
	key   string // pkg.Name or pkg.Type.Method
	obj   types.Object
	pkg   *modPackage
	doc   string
	reach reach
	why   string
}

type surface struct {
	m     *module
	names []*exported
}

// checkSurface sorts every exported name of the module's internal
// packages into the reach it passes by, if any.
func checkSurface(m *module) *surface {
	s := &surface{m: m}
	byObj := map[types.Object]*exported{}
	for _, p := range m.order {
		if !p.internal() {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				for _, e := range exportedDecls(p, d) {
					s.names = append(s.names, e)
					byObj[e.obj] = e
				}
			}
		}
	}

	// Uses from other packages' non-test code.
	reached := map[types.Object]reach{}
	for _, p := range m.order {
		r := reachUsed
		if p.dir == "benchmark" || strings.HasPrefix(p.dir, "benchmark/") {
			r = reachBenchmark
		}
		for _, obj := range p.info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin()
			}
			if e := byObj[obj]; e != nil && e.obj.Pkg() != p.types {
				if old, ok := reached[obj]; !ok || r < old {
					reached[obj] = r
				}
			}
		}
	}

	ifaces := s.interfaces()
	for _, e := range s.names {
		e.reach = reachNone
		if r, ok := reached[e.obj]; ok {
			e.reach = r
		} else if fn, ok := e.obj.(*types.Func); ok && implementsFor(fn, ifaces) {
			e.reach = reachInterface
		}
	}

	// Types flow out of every passing name's signature and fields.
	seen := map[types.Type]bool{}
	var walk func(types.Type)
	walk = func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Named:
			if e := byObj[t.Origin().Obj()]; e != nil && e.reach == reachNone {
				e.reach = reachFlows
			}
			for i := 0; i < t.TypeArgs().Len(); i++ {
				walk(t.TypeArgs().At(i))
			}
			walk(t.Underlying())
		case *types.Pointer:
			walk(t.Elem())
		case *types.Slice:
			walk(t.Elem())
		case *types.Array:
			walk(t.Elem())
		case *types.Chan:
			walk(t.Elem())
		case *types.Map:
			walk(t.Key())
			walk(t.Elem())
		case *types.Signature:
			walk(t.Params())
			walk(t.Results())
		case *types.Tuple:
			for i := 0; i < t.Len(); i++ {
				walk(t.At(i).Type())
			}
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				if f := t.Field(i); f.Exported() || f.Embedded() {
					walk(f.Type())
				}
			}
		case *types.Interface:
			for i := 0; i < t.NumMethods(); i++ {
				walk(t.Method(i).Type())
			}
		}
	}
	for _, e := range s.names {
		if e.reach != reachNone {
			continue
		}
		if why, ok := testOnly(e.doc); ok {
			e.reach, e.why = reachCited, s.checkCitation(why)
			if e.why != "" {
				e.reach = reachBadCitation
			}
		}
	}
	for _, e := range s.names {
		if e.reach <= reachCited {
			walkObject(e.obj, walk)
		}
	}
	return s
}

// walkObject feeds the types an object shows other packages to walk.
func walkObject(obj types.Object, walk func(types.Type)) {
	switch obj := obj.(type) {
	case *types.TypeName:
		walk(obj.Type().Underlying())
	default:
		walk(obj.Type())
	}
}

// exportedDecls returns the exported names one top-level declaration
// makes, methods included, with their doc comments.
func exportedDecls(p *modPackage, d ast.Decl) []*exported {
	var out []*exported
	add := func(id *ast.Ident, doc ...*ast.CommentGroup) {
		if !id.IsExported() {
			return
		}
		obj := p.info.Defs[id]
		e := &exported{key: p.types.Name() + "." + id.Name, obj: obj, pkg: p}
		if fn, ok := obj.(*types.Func); ok {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				e.key = p.types.Name() + "." + receiverName(recv.Type()) + "." + id.Name
			}
		}
		for _, g := range doc {
			if g != nil {
				e.doc = g.Text()
				break
			}
		}
		out = append(out, e)
	}
	switch d := d.(type) {
	case *ast.FuncDecl:
		add(d.Name, d.Doc)
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch spec := spec.(type) {
			case *ast.TypeSpec:
				add(spec.Name, spec.Doc, d.Doc)
			case *ast.ValueSpec:
				for _, n := range spec.Names {
					add(n, spec.Doc, d.Doc)
				}
			}
		}
	}
	return out
}

func receiverName(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	return t.(*types.Named).Obj().Name()
}

// interfaces returns, by method name, every interface a method may
// implement: the named non-generic interfaces of the module's packages
// and of the standard packages they import, and error.
func (s *surface) interfaces() map[string][]*types.Interface {
	byMethod := map[string][]*types.Interface{}
	add := func(obj types.Object) {
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			return
		}
		named, ok := tn.Type().(*types.Named)
		if !ok || named.TypeParams().Len() > 0 {
			return
		}
		iface, ok := named.Underlying().(*types.Interface)
		if !ok || !iface.IsMethodSet() {
			return
		}
		for i := 0; i < iface.NumMethods(); i++ {
			byMethod[iface.Method(i).Name()] = append(byMethod[iface.Method(i).Name()], iface)
		}
	}
	add(types.Universe.Lookup("error"))
	done := map[*types.Package]bool{}
	for _, p := range s.m.order {
		for _, pkg := range append([]*types.Package{p.types}, p.types.Imports()...) {
			if done[pkg] {
				continue
			}
			done[pkg] = true
			for _, n := range pkg.Scope().Names() {
				add(pkg.Scope().Lookup(n))
			}
		}
	}
	return byMethod
}

// implementsFor reports whether fn's receiver type, as value or
// pointer, satisfies an interface that has fn's name among its methods.
func implementsFor(fn *types.Func, ifaces map[string][]*types.Interface) bool {
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return false
	}
	recv := sig.Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	for _, iface := range ifaces[fn.Name()] {
		if types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface) {
			return true
		}
	}
	return false
}

// testOnly returns the text after a doc comment's "Test-only:".
func testOnly(doc string) (string, bool) {
	_, why, ok := strings.Cut(strings.Join(strings.Fields(doc), " "), "Test-only:")
	return why, ok
}

// checkCitation returns why a "Test-only:" citation fails, or "".
func (s *surface) checkCitation(why string) string {
	tests := citedTest.FindAllString(why, -1)
	var items []string
	for _, m := range citedItems.FindAllStringSubmatch(why, -1) {
		items = append(items, itemNumber.FindAllString(m[1], -1)...)
	}
	if len(tests) == 0 && len(items) == 0 {
		return `"Test-only:" names no Test, Fuzz or Example function and no ROADMAP item`
	}
	for _, name := range tests {
		if !s.m.tests[name] {
			return fmt.Sprintf(`"Test-only:" cites %s, which no test file declares`, name)
		}
	}
	for _, n := range items {
		if !s.m.items[n] {
			return fmt.Sprintf(`"Test-only:" cites ROADMAP item %s, which ROADMAP.md does not list`, n)
		}
	}
	return ""
}

// failures returns one line per failing name: its position, pkg.Name
// and why it fails.
func (s *surface) failures() []string {
	var out []string
	for _, e := range s.names {
		pos := stdFset.Position(e.obj.Pos())
		rel, err := filepath.Rel(s.m.root, pos.Filename)
		if err != nil {
			rel = pos.Filename
		}
		where := fmt.Sprintf("%s:%d: %s", filepath.ToSlash(rel), pos.Line, e.key)
		switch {
		case e.reach == reachNone:
			out = append(out, where+": exported, but no other package's non-test code reaches it; unexport it, delete it, or cite its test with \"Test-only:\"")
		case e.reach == reachBadCitation:
			out = append(out, where+": "+e.why)
		case e.reach < reachCited:
			if _, ok := testOnly(e.doc); ok {
				out = append(out, where+fmt.Sprintf(": says \"Test-only:\", but it is reached (%s)", reachLabels[e.reach]))
			}
		}
	}
	return out
}

// logCounts logs the names per reach, overall and per package.
func (s *surface) logCounts(t *testing.T) {
	t.Helper()
	total := [len(reachLabels)]int{}
	perPkg := map[string]*[len(reachLabels)]int{}
	for _, e := range s.names {
		total[e.reach]++
		if perPkg[e.pkg.dir] == nil {
			perPkg[e.pkg.dir] = &[len(reachLabels)]int{}
		}
		perPkg[e.pkg.dir][e.reach]++
	}
	t.Logf("%d exported names in internal/: %s", len(s.names), formatCounts(total[:]))
	dirs := make([]string, 0, len(perPkg))
	for dir := range perPkg {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	for _, dir := range dirs {
		t.Logf("  %s: %s", dir, formatCounts(perPkg[dir][:]))
	}
}

func formatCounts(n []int) string {
	var parts []string
	for r, c := range n {
		if c > 0 {
			parts = append(parts, fmt.Sprintf("%d %s", c, reachLabels[r]))
		}
	}
	return strings.Join(parts, ", ")
}

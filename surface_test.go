package repro

// The surface gate: every exported identifier in the module has a
// caller in non-test code or a line in testdata/surface_allow.txt that
// says why it stays, and README.md, DESIGN.md and EXPERIMENTS.md name
// only code that exists. Stdlib only (go/build, go/parser, go/types),
// like benchmark/surface_test.go.

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
	"unicode"
)

func TestSurface(t *testing.T) {
	m, err := loadSurface(".")
	if err != nil {
		t.Fatal(err)
	}
	allow, err := readSurfaceAllow("testdata/surface_allow.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range m.verdicts(allow, []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}) {
		t.Error(f)
	}
}

// TestSurfaceFixture pins the gate's own verdicts on testdata/surface:
// an unreferenced exported func and a doc naming a missing identifier
// (or a line) fail; a method reached only through an interface, or
// called only on a generic instantiation, passes; an allowlist line
// silences a finding, and one for a used identifier is stale.
func TestSurfaceFixture(t *testing.T) {
	m, err := loadSurface("testdata/surface")
	if err != nil {
		t.Fatal(err)
	}
	doc := []string{"testdata/surface/README.md"}
	want := []string{
		"testdata/surface/README.md: `lib.Missing` names nothing in the module or the stdlib",
		"testdata/surface/README.md:5: lib/lib.go:12 is a line reference; name the function instead",
		"testdata/surface/lib/lib.go:6: lib.Dead has no caller outside tests (0 test uses): delete it, move it to export_test.go, or list it with its reason",
	}
	if got := m.verdicts(nil, doc); !slices.Equal(got, want) {
		t.Errorf("verdicts:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	allow := []surfaceAllow{
		{key: "lib.Dead", kind: "paper", reason: "§V: kept on purpose", file: "allow", line: 1},
		{key: "lib.Square.Area", kind: "paper", reason: "§V: kept on purpose", file: "allow", line: 2},
		{key: "`lib.Missing`", kind: "doc", reason: "not Go", file: "allow", line: 3},
	}
	want = []string{
		"allow:2: lib.Square.Area: has a caller in non-test code now; drop the line",
		want[1],
	}
	if got := m.verdicts(allow, doc); !slices.Equal(got, want) {
		t.Errorf("verdicts with an allowlist:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// surfaceAllow is one allowlist line: the identifier (a code key such
// as internal/ga.Array.Duplicate, or a backticked doc token), its kind
// and its reason. A "paper" reason cites a section, figure, table or
// SNIPPETS.md; a "test" reason starts with the test that needs the
// identifier; a "doc" line allows a doc token that is not Go code.
type surfaceAllow struct {
	key, kind, reason string
	file              string
	line              int
}

func readSurfaceAllow(path string) ([]surfaceAllow, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []surfaceAllow
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		a := surfaceAllow{key: fields[0], file: path, line: n}
		if len(fields) > 1 {
			a.kind = fields[1]
		}
		if len(fields) > 2 {
			a.reason = strings.Join(fields[2:], " ")
		}
		out = append(out, a)
	}
	return out, sc.Err()
}

type surfacePkg struct {
	rel, path, name              string
	files, testFiles, xtestFiles []*ast.File

	pkg   *types.Package // non-test files only
	info  *types.Info
	tpkg  *types.Package // with the in-package test files
	tinfo *types.Info
	xinfo *types.Info // the external test package, if any
}

type surfaceModule struct {
	fset  *token.FileSet
	path  string
	pkgs  map[string]*surfacePkg // by import path
	order []*surfacePkg          // by directory
	std   types.Importer
	errs  []string
	defs  map[string][]types.Object // every name the module declares, tests and locals included
}

func newSurfaceInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
}

// loadSurface parses every package under root (the module root), the
// way `go build` selects files for this host, and type-checks each one
// three ways: its non-test files, those plus its in-package tests, and
// its external test package.
func loadSurface(root string) (*surfaceModule, error) {
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := &surfaceModule{fset: token.NewFileSet(), pkgs: map[string]*surfacePkg{}}
	for _, line := range strings.Split(string(gomod), "\n") {
		if p, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			m.path = strings.TrimSpace(p)
		}
	}
	m.std = importer.ForCompiler(m.fset, "gc", nil)
	err = filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if n := d.Name(); dir != root && (n == "testdata" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_")) {
			return filepath.SkipDir
		}
		bp, err := build.Default.ImportDir(dir, 0)
		if _, none := err.(*build.NoGoError); none {
			return nil
		} else if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, dir)
		p := &surfacePkg{rel: filepath.ToSlash(rel), path: m.path, name: bp.Name}
		if p.rel != "." {
			p.path += "/" + p.rel
		}
		parse := func(names []string) ([]*ast.File, error) {
			var fs []*ast.File
			for _, n := range names {
				f, err := parser.ParseFile(m.fset, filepath.Join(dir, n), nil, parser.SkipObjectResolution)
				if err != nil {
					return nil, err
				}
				fs = append(fs, f)
			}
			return fs, nil
		}
		if p.files, err = parse(bp.GoFiles); err != nil {
			return err
		}
		if p.testFiles, err = parse(bp.TestGoFiles); err != nil {
			return err
		}
		if p.xtestFiles, err = parse(bp.XTestGoFiles); err != nil {
			return err
		}
		m.pkgs[p.path] = p
		m.order = append(m.order, p)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, p := range m.order {
		if _, err := m.Import(p.path); err != nil {
			return nil, err
		}
	}
	if len(m.errs) > 0 {
		return nil, fmt.Errorf("type errors in non-test code:\n%s", strings.Join(m.errs, "\n"))
	}
	// Test files are checked leniently: an external test that reaches a
	// package through another one sees two copies of its types, which
	// only go test's recompilation would reconcile. Uses still resolve.
	for _, p := range m.order {
		p.tinfo = newSurfaceInfo()
		conf := types.Config{Importer: m, Error: func(error) {}}
		p.tpkg, _ = conf.Check(p.path, m.fset, append(append([]*ast.File(nil), p.files...), p.testFiles...), p.tinfo)
		if len(p.xtestFiles) > 0 {
			p.xinfo = newSurfaceInfo()
			conf.Importer = surfaceXImporter{m, p}
			conf.Check(p.path+"_test", m.fset, p.xtestFiles, p.xinfo)
		}
	}
	m.defs = map[string][]types.Object{}
	for _, p := range m.order {
		for _, info := range []*types.Info{p.tinfo, p.xinfo} {
			if info == nil {
				continue
			}
			for id, obj := range info.Defs {
				if obj != nil {
					m.defs[id.Name] = append(m.defs[id.Name], obj)
				}
			}
		}
	}
	return m, nil
}

// Import type-checks a module package on first use and hands the rest
// to the compiler's export data.
func (m *surfaceModule) Import(path string) (*types.Package, error) {
	p, ok := m.pkgs[path]
	if !ok {
		return m.std.Import(path)
	}
	if p.pkg == nil {
		p.info = newSurfaceInfo()
		conf := types.Config{Importer: m, Error: func(err error) { m.errs = append(m.errs, err.Error()) }}
		p.pkg, _ = conf.Check(p.path, m.fset, p.files, p.info)
	}
	return p.pkg, nil
}

type surfaceXImporter struct {
	m *surfaceModule
	p *surfacePkg
}

func (x surfaceXImporter) Import(path string) (*types.Package, error) {
	if path == x.p.path {
		return x.p.tpkg, nil
	}
	return x.m.Import(path)
}

// surfaceDecl is one exported identifier: a package-level name, or a
// method or field of a package-level type.
type surfaceDecl struct {
	key string
	obj types.Object
}

func (m *surfaceModule) decls() []surfaceDecl {
	var out []surfaceDecl
	for _, p := range m.order {
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			prefix := p.rel + "." + name
			if obj.Exported() {
				out = append(out, surfaceDecl{key: prefix, obj: obj})
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if f := named.Method(i); f.Exported() {
					out = append(out, surfaceDecl{key: prefix + "." + f.Name(), obj: f})
				}
			}
			switch u := named.Underlying().(type) {
			case *types.Struct:
				for i := 0; i < u.NumFields(); i++ {
					if f := u.Field(i); f.Exported() && !f.Embedded() {
						out = append(out, surfaceDecl{key: prefix + "." + f.Name(), obj: f})
					}
				}
			case *types.Interface:
				for i := 0; i < u.NumExplicitMethods(); i++ {
					if f := u.ExplicitMethod(i); f.Exported() {
						out = append(out, surfaceDecl{key: prefix + "." + f.Name(), obj: f})
					}
				}
			}
		}
	}
	return out
}

// refs counts the references each declared object gets from the given
// infos, keyed by declaration position: an instantiated generic method
// or field shares its origin's position, and the test-side copy of a
// package shares the non-test one's. A receiver's type does not count
// as a use of the type; an unkeyed struct literal and a struct with a
// tagged (reflectively encoded) field use every field.
func (m *surfaceModule) refs(infos []*types.Info, files [][]*ast.File, seed map[token.Pos]bool) map[token.Pos]int {
	n := map[token.Pos]int{}
	recv := map[*ast.Ident]bool{}
	for _, fs := range files {
		for _, f := range fs {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
					ast.Inspect(fd.Recv, func(x ast.Node) bool {
						if id, ok := x.(*ast.Ident); ok {
							recv[id] = true
						}
						return true
					})
				}
			}
		}
	}
	useStruct := func(t types.Type) {
		if s, ok := t.Underlying().(*types.Struct); ok {
			for i := 0; i < s.NumFields(); i++ {
				n[s.Field(i).Pos()]++
			}
		}
	}
	for _, info := range infos {
		for id, obj := range info.Uses {
			if !recv[id] && obj.Pkg() != nil {
				n[obj.Pos()]++
			}
		}
		for e, tv := range info.Types {
			if lit, ok := e.(*ast.CompositeLit); ok && len(lit.Elts) > 0 {
				if _, keyed := lit.Elts[0].(*ast.KeyValueExpr); !keyed {
					useStruct(tv.Type)
				}
			}
		}
	}
	for _, p := range m.order {
		for _, name := range p.pkg.Scope().Names() {
			if tn, ok := p.pkg.Scope().Lookup(name).(*types.TypeName); ok {
				if s, ok := tn.Type().Underlying().(*types.Struct); ok {
					for i := 0; i < s.NumFields(); i++ {
						if s.Tag(i) != "" {
							useStruct(s)
							break
						}
					}
				}
			}
		}
	}
	m.useThroughInterfaces(n, infos, seed)
	return n
}

// useThroughInterfaces credits a concrete method with a use when its
// type implements an interface whose method is used (or allowlisted):
// a module interface, named or literal, or any method of error or of an
// interface declared in a stdlib package the module imports (the stdlib
// calls it, out of sight).
func (m *surfaceModule) useThroughInterfaces(n map[token.Pos]int, infos []*types.Info, seed map[token.Pos]bool) {
	type iface struct {
		t   *types.Interface
		std bool
	}
	var ifaces []iface
	seen := map[string]bool{}
	addScope := func(scope *types.Scope) {
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, iface{it, true})
				}
			}
		}
	}
	addScope(types.Universe)
	var named []*types.Named
	for _, p := range m.order {
		for _, imp := range p.pkg.Imports() {
			if _, mod := m.pkgs[imp.Path()]; !mod && !seen[imp.Path()] {
				seen[imp.Path()] = true
				addScope(imp.Scope())
			}
		}
		for _, name := range p.pkg.Scope().Names() {
			if tn, ok := p.pkg.Scope().Lookup(name).(*types.TypeName); ok {
				if nt, ok := tn.Type().(*types.Named); ok && nt.TypeParams() == nil {
					named = append(named, nt)
				}
			}
		}
	}
	lits := map[*types.Interface]bool{}
	for _, info := range infos {
		for _, tv := range info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && tv.IsType() && it.NumMethods() > 0 && !lits[it] {
				lits[it] = true
				ifaces = append(ifaces, iface{it, false})
			}
		}
	}
	for _, it := range ifaces {
		for i := 0; i < it.t.NumMethods(); i++ {
			im := it.t.Method(i)
			if !it.std && n[im.Pos()] == 0 && !seed[im.Pos()] {
				continue
			}
			for _, nt := range named {
				if !types.Implements(nt, it.t) && !types.Implements(types.NewPointer(nt), it.t) {
					continue
				}
				if obj, _, _ := types.LookupFieldOrMethod(nt, true, im.Pkg(), im.Name()); obj != nil && obj.Pos() != im.Pos() {
					n[obj.Pos()]++
				}
			}
		}
	}
}

// verdicts is the gate: one line per unreferenced exported identifier
// not on the allowlist, per bad allowlist line, and per stale doc token
// or line reference in docs.
func (m *surfaceModule) verdicts(allow []surfaceAllow, docs []string) []string {
	var prodInfos, testInfos []*types.Info
	var prodFiles, testFiles [][]*ast.File
	for _, p := range m.order {
		prodInfos = append(prodInfos, p.info)
		prodFiles = append(prodFiles, p.files)
		testInfos = append(testInfos, p.tinfo)
		testFiles = append(testFiles, p.files, p.testFiles, p.xtestFiles)
		if p.xinfo != nil {
			testInfos = append(testInfos, p.xinfo)
		}
	}
	allowed := map[string]surfaceAllow{}
	for _, a := range allow {
		allowed[a.key] = a
	}
	decls := m.decls()
	seed := map[token.Pos]bool{}
	for _, d := range decls {
		if _, ok := allowed[d.key]; ok {
			seed[d.obj.Pos()] = true
		}
	}
	prod := m.refs(prodInfos, prodFiles, seed)
	all := m.refs(testInfos, testFiles, seed)

	var out []string
	bad := func(a surfaceAllow, format string, args ...any) {
		out = append(out, fmt.Sprintf("%s:%d: %s: %s", a.file, a.line, a.key, fmt.Sprintf(format, args...)))
	}
	tests := m.testFuncs()
	listed := map[string]bool{}
	for _, a := range allow {
		if listed[a.key] {
			bad(a, "listed twice")
		}
		listed[a.key] = true
		switch a.kind {
		case "paper":
			if !paperRE.MatchString(a.reason) {
				bad(a, "a paper reason cites a section, figure, table or SNIPPETS.md")
			}
		case "test":
			if name, _, _ := strings.Cut(a.reason, " "); !tests[strings.TrimSuffix(name, ":")] {
				bad(a, "a test reason starts with the test that needs it, and %q is not one", name)
			}
		case "doc":
			if a.reason == "" {
				bad(a, "no reason")
			}
		default:
			bad(a, "kind %q is not paper, test or doc", a.kind)
		}
	}

	used := map[string]bool{}
	for _, d := range decls {
		pos := d.obj.Pos()
		refd := prod[pos] > 0
		if tn, ok := d.obj.(*types.TypeName); ok && !refd {
			refd = m.memberUsed(tn, prod)
		}
		a, listed := allowed[d.key]
		used[d.key] = listed
		switch {
		case refd && listed:
			bad(a, "has a caller in non-test code now; drop the line")
		case !refd && !listed:
			where := m.fset.Position(pos)
			out = append(out, fmt.Sprintf("%s:%d: %s has no caller outside tests (%d test uses): delete it, move it to export_test.go, or list it with its reason", where.Filename, where.Line, d.key, all[pos]))
		case !refd && a.kind == "test" && all[pos] == 0:
			bad(a, "no test uses it either")
		}
	}
	docTokens := map[string]bool{}
	for _, doc := range docs {
		fs, toks := m.checkDoc(doc)
		out = append(out, fs...)
		for _, tok := range toks {
			if _, ok := allowed["`"+tok+"`"]; ok {
				docTokens["`"+tok+"`"] = true
				continue
			}
			out = append(out, fmt.Sprintf("%s: `%s` names nothing in the module or the stdlib", doc, tok))
		}
	}
	for _, a := range allow {
		if strings.HasPrefix(a.key, "`") {
			if a.kind != "doc" {
				bad(a, "a doc token's kind is doc")
			} else if !docTokens[a.key] {
				bad(a, "no doc names it any more, or it resolves now")
			}
		} else if _, ok := used[a.key]; !ok {
			bad(a, "no such exported identifier")
		}
	}
	sort.Strings(out)
	return out
}

func (m *surfaceModule) memberUsed(tn *types.TypeName, n map[token.Pos]int) bool {
	named, ok := tn.Type().(*types.Named)
	if !ok {
		return false
	}
	for i := 0; i < named.NumMethods(); i++ {
		if n[named.Method(i).Pos()] > 0 {
			return true
		}
	}
	if s, ok := named.Underlying().(*types.Struct); ok {
		for i := 0; i < s.NumFields(); i++ {
			if n[s.Field(i).Pos()] > 0 {
				return true
			}
		}
	}
	return false
}

func (m *surfaceModule) testFuncs() map[string]bool {
	out := map[string]bool{}
	for _, p := range m.order {
		for _, fs := range [][]*ast.File{p.testFiles, p.xtestFiles} {
			for _, f := range fs {
				for _, d := range f.Decls {
					if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
						for _, pre := range []string{"Test", "Benchmark", "Fuzz", "Example"} {
							if strings.HasPrefix(fd.Name.Name, pre) {
								out[fd.Name.Name] = true
							}
						}
					}
				}
			}
		}
	}
	return out
}

var (
	paperRE   = regexp.MustCompile(`§|Figure |Table |SNIPPETS\.md`)
	fenceRE   = regexp.MustCompile("(?ms)^```.*?^```")
	codeRE    = regexp.MustCompile("`([^`\n]+)`")
	identRE   = regexp.MustCompile(`^[A-Za-z_]\w*(\.[A-Za-z_]\w*)*(\([^()]*\))?$`)
	lineRefRE = regexp.MustCompile(`[\w./-]+\.go:\d+`)
)

// checkDoc returns one finding per file.go:NN line reference in doc,
// and the backticked identifier-shaped tokens that resolve to nothing.
// A token is checked when it reads as Go: it has an upper-case letter,
// or its first part is a package name; snake_case parts (metric names)
// and file names are not Go.
func (m *surfaceModule) checkDoc(doc string) (findings, unresolved []string) {
	b, err := os.ReadFile(doc)
	if err != nil {
		return []string{err.Error()}, nil
	}
	text := string(b)
	for i, line := range strings.Split(text, "\n") {
		for _, ref := range lineRefRE.FindAllString(line, -1) {
			findings = append(findings, fmt.Sprintf("%s:%d: %s is a line reference; name the function instead", doc, i+1, ref))
		}
	}
	seen := map[string]bool{}
	for _, match := range codeRE.FindAllStringSubmatch(fenceRE.ReplaceAllString(text, ""), -1) {
		tok := match[1]
		if seen[tok] || !identRE.MatchString(tok) {
			continue
		}
		seen[tok] = true
		path, _, _ := strings.Cut(tok, "(")
		segs := strings.Split(path, ".")
		switch segs[len(segs)-1] {
		case "go", "golden", "json", "txt", "md":
			continue
		}
		goish := m.isPackageName(segs[0])
		snake := false
		for _, s := range segs {
			upper := strings.IndexFunc(s, unicode.IsUpper) >= 0
			goish = goish || upper
			snake = snake || !upper && strings.Contains(s, "_")
		}
		if goish && !snake && !m.resolve(segs) {
			unresolved = append(unresolved, tok)
		}
	}
	return findings, unresolved
}

func (m *surfaceModule) isPackageName(name string) bool {
	for _, p := range m.order {
		if p.name == name {
			return true
		}
		for _, imp := range p.tpkg.Imports() {
			if imp.Name() == name {
				return true
			}
		}
	}
	return false
}

// resolve walks a dotted token: its first part is a package (module or
// imported stdlib) or any name the module declares, test files and
// locals included; each further part is a package member, or a field
// or method of the type reached so far.
func (m *surfaceModule) resolve(segs []string) bool {
	var scopes []*types.Scope
	for _, p := range m.order {
		if p.name == segs[0] {
			scopes = append(scopes, p.tpkg.Scope())
		}
		for _, imp := range p.tpkg.Imports() {
			if imp.Name() == segs[0] {
				scopes = append(scopes, imp.Scope())
			}
			if len(segs) == 1 {
				if obj := imp.Scope().Lookup(segs[0]); obj != nil && obj.Exported() {
					return true
				}
			}
		}
	}
	starts := m.defs[segs[0]]
	if len(segs) == 1 {
		return len(starts) > 0 || len(scopes) > 0
	}
	for _, s := range scopes {
		if obj := s.Lookup(segs[1]); obj != nil && m.walk(obj, segs[2:]) {
			return true
		}
	}
	for _, obj := range starts {
		if m.walk(obj, segs[1:]) {
			return true
		}
	}
	return false
}

func (m *surfaceModule) walk(obj types.Object, segs []string) bool {
	for _, s := range segs {
		switch obj.(type) {
		case *types.TypeName, *types.Var:
		default:
			return false
		}
		next, _, _ := types.LookupFieldOrMethod(obj.Type(), true, obj.Pkg(), s)
		if next == nil {
			return false
		}
		obj = next
	}
	return true
}

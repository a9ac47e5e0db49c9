package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestSuiteCleanOnTree runs the full analyzer suite over the real module
// and requires zero diagnostics — the same gate `make lint` and CI apply.
// Every deviation from an invariant must carry a reasoned //maxbr:ignore
// or be fixed; there is no baseline file to hide behind.
func TestSuiteCleanOnTree(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	pkgs := modulePackages(t)
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages; the module walk is broken", len(pkgs))
	}
	for _, pkg := range pkgs {
		for _, d := range RunAnalyzers(pkg, Analyzers()) {
			t.Errorf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
		}
	}
}

// The module's packages are type-checked once for every self-check.
var (
	pkgsOnce sync.Once
	pkgsVal  []*Package
	pkgsErr  error
)

func modulePackages(t *testing.T) []*Package {
	t.Helper()
	loader := moduleLoader(t)
	pkgsOnce.Do(func() { pkgsVal, pkgsErr = loader.Load() })
	if pkgsErr != nil {
		t.Fatalf("loading module: %v", pkgsErr)
	}
	return pkgsVal
}

// TestAnalyzerTargetsExist keeps the analyzers' API target lists from
// going stale: every (package, receiver, method) an analyzer names must
// resolve to a declaration in the module, or its rule silently matches
// nothing after a rename.
func TestAnalyzerTargetsExist(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	var targets [][3]string
	for _, s := range append(sharedSources, handoverSinks...) {
		targets = append(targets, [3]string{s.pkg, s.recv, s.name})
	}
	for _, r := range resultPinned {
		targets = append(targets, [3]string{r.pkg, r.recv, r.name})
	}
	for _, l := range snapshotLoaders {
		targets = append(targets, [3]string{l[0], l[1], l[2]})
	}
	for _, r := range tryPinRecvs {
		targets = append(targets, [3]string{r[0], r[1], "TryPin"}, [3]string{r[0], r[1], "Unpin"})
	}
	byPath := map[string]*types.Package{}
	for _, pkg := range modulePackages(t) {
		byPath[pkg.PkgPath] = pkg.Pkg
	}
	for _, tg := range targets {
		pkg := byPath[tg[0]]
		if pkg == nil {
			t.Errorf("%s.%s.%s: no package %s in the module", tg[0], tg[1], tg[2], tg[0])
			continue
		}
		recv, _ := pkg.Scope().Lookup(tg[1]).(*types.TypeName)
		if recv == nil {
			t.Errorf("%s.%s.%s: no type %s", tg[0], tg[1], tg[2], tg[1])
			continue
		}
		if m, _, _ := types.LookupFieldOrMethod(recv.Type(), true, pkg, tg[2]); m == nil {
			t.Errorf("%s.%s.%s: no method %s", tg[0], tg[1], tg[2], tg[2])
		} else if _, ok := m.(*types.Func); !ok {
			t.Errorf("%s.%s.%s: %s is not a method", tg[0], tg[1], tg[2], tg[2])
		}
	}
}

// TestHotPathAnnotationsPresent pins the //maxbr:hotpath coverage: the
// named per-query inner loops must stay annotated, so deleting the
// directive (and with it the allocation gate) cannot happen silently.
func TestHotPathAnnotationsPresent(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	annotated := map[string]bool{}
	for _, pkg := range modulePackages(t) {
		for _, f := range pkg.Files {
			for _, fd := range hotpathFuncs(f) {
				name := pkg.Pkg.Name() + "." + fd.Name.Name
				if r := recvName(fd); r != "" {
					name = pkg.Pkg.Name() + "." + r + "." + fd.Name.Name
				}
				annotated[name] = true
			}
		}
	}
	for _, want := range []string{
		"invfile.layout.sumRun",
		"invfile.DecodeSumsInto",
		"invfile.Dir.SumsInto",
		"textrel.Model.weight",
		"textrel.Model.Sum",
		"textrel.Scorer.Combine",
		"topk.Traverse",
		"topk.RefineUser",
		"core.Engine.selectKeywordsExact",
	} {
		if !annotated[want] {
			t.Errorf("%s lost its //maxbr:hotpath annotation", want)
		}
	}
}

// testObservers are declarations no production path calls that tests use
// to observe production state. Each needs a reason; an entry that stops
// matching a declaration fails the test, so the list cannot go stale.
var testObservers = map[string]string{
	"container.TopK.Items":         "tests inspect the retained items",
	"container.TopK.Len":           "tests check the retained count",
	"geo.Rect.ContainsRect":        "the R-tree structure checks in tests",
	"irtree.Tree.DiskPages":        "tests pin the pages an index occupies",
	"irtree.Tree.Height":           "tests check the tree shape after mutations",
	"irtree.Tree.Kind":             "tests check a restored tree kept its kind",
	"irtree.Tree.NumNodes":         "tests count node slots after mutations",
	"lint.Loader.Fset":             "tests position diagnostics",
	"lint.Loader.LoadDir":          "the analyzer fixtures load testdata packages",
	"storage.EpochPins.Floor":      "tests check the pin floor returns to zero",
	"storage.IOCounter.InvBlocks":  "tests read the simulated posting-I/O split",
	"storage.IOCounter.NodeVisits": "tests read the simulated node-I/O split",
	"vocab.Doc.Equal":              "tests compare documents",
	"vocab.Doc.IsEmpty":            "tests check empty documents",
	"vocab.Vocabulary.MustLookup":  "tests build documents from known words",
}

// TestNoUnreachableInternalDecls fails on any package-level function,
// method, type, constant or variable declared in a non-test file under
// internal/ that no non-test file of the module references, so dead code
// cannot regrow. Imports resolve through export data, where a use in
// another package is a different types.Object, so declarations and uses
// meet on their declaration position (file:line:name). A method also counts
// as used when its receiver satisfies a module interface declaring it, or
// when it is Error, Unwrap or String. The test support package
// (testSupport) is held to a stricter rule: no non-test file may import
// it, and each of its declarations must be used by another of them or be
// named by a _test.go file.
func TestNoUnreachableInternalDecls(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	pkgs := modulePackages(t)
	fset := moduleLoader(t).Fset()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	key := func(pos token.Pos, name string) string {
		p := fset.Position(pos)
		return p.Filename + ":" + strconv.Itoa(p.Line) + ":" + name
	}

	type decl struct {
		name       string // pkg[.Recv].Name, as testObservers spells it
		pos        string // file:line relative to the module
		start, end token.Pos
		method     *types.Func
	}
	decls := map[string]*decl{}
	var ifaces []*types.Interface
	testUses := map[string]bool{} // testSupport's declarations a _test.go file names
	for _, pkg := range pkgs {
		tests, _ := filepath.Glob(filepath.Join(filepath.Dir(fset.Position(pkg.Files[0].Pos()).Filename), "*_test.go"))
		for _, name := range tests {
			src, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(string(src), strconv.Quote(testSupport)) {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), name, src, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == path.Base(testSupport) {
						testUses[x.Name+"."+sel.Sel.Name] = true
					}
				}
				return true
			})
		}
		for _, f := range pkg.Files {
			file := fset.Position(f.Pos()).Filename
			rel, _ := filepath.Rel(root, file)
			internal := strings.HasPrefix(rel, "internal"+string(filepath.Separator))
			for _, im := range f.Imports {
				if p, _ := strconv.Unquote(im.Path.Value); p == testSupport {
					t.Errorf("%s imports the test support package %s", rel, p)
				}
			}
			add := func(id *ast.Ident, recv string, node ast.Node) {
				if !internal || id.Name == "_" || id.Name == "init" {
					return
				}
				name := pkg.Pkg.Name() + "." + id.Name
				if recv != "" {
					name = pkg.Pkg.Name() + "." + recv + "." + id.Name
				}
				d := &decl{name: name, pos: rel + ":" + strconv.Itoa(fset.Position(id.Pos()).Line), start: node.Pos(), end: node.End()}
				if fn, ok := pkg.Info.Defs[id].(*types.Func); ok && recv != "" {
					d.method = fn
				}
				decls[key(id.Pos(), id.Name)] = d
			}
			for _, dcl := range f.Decls {
				switch dcl := dcl.(type) {
				case *ast.FuncDecl:
					add(dcl.Name, recvName(dcl), dcl)
				case *ast.GenDecl:
					for _, spec := range dcl.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							add(spec.Name, "", spec)
							if it, ok := pkg.Info.Defs[spec.Name].Type().Underlying().(*types.Interface); ok && spec.TypeParams == nil {
								ifaces = append(ifaces, it)
							}
						case *ast.ValueSpec:
							for _, n := range spec.Names {
								add(n, "", spec)
							}
						}
					}
				}
			}
		}
	}

	used := map[string]bool{}
	for _, pkg := range pkgs {
		// A receiver names its own type; that is not a use of it.
		var recvs []ast.Node
		for _, f := range pkg.Files {
			for _, dcl := range f.Decls {
				if fd, ok := dcl.(*ast.FuncDecl); ok && fd.Recv != nil {
					recvs = append(recvs, fd.Recv)
				}
			}
		}
		inRecv := func(p token.Pos) bool {
			for _, r := range recvs {
				if r.Pos() <= p && p < r.End() {
					return true
				}
			}
			return false
		}
		for id, obj := range pkg.Info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin()
			}
			k := key(obj.Pos(), obj.Name())
			d := decls[k]
			if d == nil || inRecv(id.Pos()) || (d.start <= id.Pos() && id.Pos() < d.end) {
				continue // not a module declaration, or a self-reference
			}
			used[k] = true
		}
	}

	stringer := types.NewInterfaceType([]*types.Func{
		types.NewFunc(token.NoPos, nil, "String", types.NewSignatureType(nil, nil, nil, nil,
			types.NewTuple(types.NewVar(token.NoPos, nil, "", types.Typ[types.String])), false)),
	}, nil).Complete()
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface), stringer)
	satisfiesInterface := func(fn *types.Func) bool {
		if fn.Name() == "Unwrap" {
			return true
		}
		recv := fn.Type().(*types.Signature).Recv().Type()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		if n, ok := recv.(*types.Named); ok && n.TypeParams().Len() > 0 {
			return false
		}
		for _, it := range ifaces {
			for i := 0; i < it.NumMethods(); i++ {
				if it.Method(i).Name() == fn.Name() &&
					(types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it)) {
					return true
				}
			}
		}
		return false
	}

	matched := map[string]bool{}
	var dead []string
	for k, d := range decls {
		if used[k] || testUses[d.name] || (d.method != nil && satisfiesInterface(d.method)) {
			continue
		}
		if _, ok := testObservers[d.name]; ok {
			matched[d.name] = true
			continue
		}
		dead = append(dead, d.pos+": "+d.name)
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("unreachable: %s", d)
	}
	for name := range testObservers {
		if !matched[name] {
			t.Errorf("testObservers lists %s, which is no longer an unreferenced declaration", name)
		}
	}
}

// testSupport is the package of test support: only _test.go files import
// it.
const testSupport = "repro/internal/testgen"

// recvName returns the receiver's type name of a method, or "".
func recvName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	x := fd.Recv.List[0].Type
	if s, ok := x.(*ast.StarExpr); ok {
		x = s.X
	}
	switch r := x.(type) {
	case *ast.IndexExpr:
		x = r.X
	case *ast.IndexListExpr:
		x = r.X
	}
	if id, ok := x.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

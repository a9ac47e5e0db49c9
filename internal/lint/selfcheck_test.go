package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
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
	loader := moduleLoader(t)
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages; the module walk is broken", len(pkgs))
	}
	for _, pkg := range pkgs {
		for _, d := range RunAnalyzers(pkg, Analyzers()) {
			t.Errorf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
		}
	}
}

// TestSessionCallSitesAudited is the pinpair-driven audit the session
// lifecycle relies on: every NewSession / NewParallelSession /
// NewUnpreparedSession call site in the binaries, the server, the
// experiments, and the examples either closes its session or deliberately
// hands it off (returns it, stores it in the cache). The test first
// proves the audit is not vacuous — the call sites it is about must
// exist — then requires pinpair to pass.
func TestSessionCallSitesAudited(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks several packages; skipped in -short")
	}
	loader := moduleLoader(t)
	pkgs, err := loader.Load("./cmd/...", "./internal/server/...", "./internal/experiments/...", "./examples/...")
	if err != nil {
		t.Fatalf("loading audit packages: %v", err)
	}

	callSites := 0
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeFunc(pkg.Info, call)
				if matchesFunc(fn, "repro", "Index", "NewSession") ||
					matchesFunc(fn, "repro", "Index", "NewParallelSession") ||
					matchesFunc(fn, "repro", "Index", "NewUnpreparedSession") {
					callSites++
				}
				return true
			})
		}
	}
	if callSites == 0 {
		t.Fatal("audit found no session constructor call sites; the pattern list is stale")
	}
	t.Logf("auditing %d session call sites across %d packages", callSites, len(pkgs))

	for _, pkg := range pkgs {
		for _, d := range RunAnalyzers(pkg, []*Analyzer{AnalyzerPinPair}) {
			t.Errorf("unreleased acquisition at %s: %s", d.Pos, d.Message)
		}
	}
}

// TestHotPathAnnotationsPresent pins the //maxbr:hotpath coverage: the
// named per-query inner loops must stay annotated, so deleting the
// directive (and with it the allocation gate) cannot happen silently.
func TestHotPathAnnotationsPresent(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks several packages; skipped in -short")
	}
	loader := moduleLoader(t)
	pkgs, err := loader.Load("./internal/invfile", "./internal/topk", "./internal/core")
	if err != nil {
		t.Fatalf("loading packages: %v", err)
	}
	annotated := map[string]bool{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, fd := range hotpathFuncs(f) {
				annotated[strings.TrimPrefix(pkg.PkgPath, "repro/internal/")+"."+fd.Name.Name] = true
			}
		}
	}
	for _, want := range []string{
		"invfile.SumsInto",
		"invfile.DecodeSumsInto",
		"topk.Traverse",
		"topk.RefineUser",
		"core.scanUnit",
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
	"invfile.File.NumPostings":     "tests compare posting counts",
	"invfile.File.Postings":        "tests compare decoded posting lists",
	"invfile.File.Terms":           "tests enumerate a file's terms",
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
// when it is Error, Unwrap or String.
func TestNoUnreachableInternalDecls(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	loader := moduleLoader(t)
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	fset := loader.Fset()
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
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			file := fset.Position(f.Pos()).Filename
			rel, _ := filepath.Rel(root, file)
			internal := strings.HasPrefix(rel, "internal"+string(filepath.Separator))
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
		if used[k] || (d.method != nil && satisfiesInterface(d.method)) {
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

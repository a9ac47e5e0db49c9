// Package lint is maxbrlint: a suite of project-specific static
// analyzers that mechanically enforce the invariants this codebase's
// correctness hinges on — single snapshot loads per operation, the
// shared-immutable aliasing contract of the cache layers, released or
// handed-off epoch pins and sessions, allocation-free annotated hot
// paths, errors.Is over sentinel identity comparisons with sentinels
// wrapped first by %w, and enum switches that cover every constant or
// fail.
//
// The framework mirrors the golang.org/x/tools/go/analysis shape
// (Analyzer, Pass, Diagnostic) but is self-contained on the standard
// library: the module's packages are listed by one `go list -deps
// -export` and type-checked from source with go/types, with dependencies
// imported from compiler export data. Should the tree ever vendor
// x/tools, each analyzer's Run is a drop-in analysis.Analyzer body.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer is one named check. Run inspects a single package and reports
// findings through pass.Report.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //maxbr:ignore directives.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run performs the check on one package.
	Run func(pass *Pass)
}

// Pass carries one type-checked package through an analyzer run.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	// Report delivers one diagnostic. The suite attaches the analyzer
	// name and applies //maxbr:ignore suppression afterwards.
	Report func(pos token.Pos, format string, args ...any)
}

// Diagnostic is one finding, positioned in the loaded file set.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// calleeFunc resolves the *types.Func a call expression invokes: a
// method (through Selections), a package-level function, or a qualified
// pkg.Func reference. Nil for builtins, conversions, and indirect calls
// through function values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// namedRecv returns the defining package path and type name of fn's
// receiver ("", "" for non-methods), unwrapping pointers and generic
// instantiations to the origin type.
func namedRecv(fn *types.Func) (pkgPath, typeName string) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return "", ""
	}
	obj := n.Origin().Obj()
	if obj.Pkg() == nil {
		return "", obj.Name()
	}
	return obj.Pkg().Path(), obj.Name()
}

// matchesFunc reports whether fn is the method typeName.name declared in
// package pkgPath (typeName "" matches package-level functions).
func matchesFunc(fn *types.Func, pkgPath, typeName, name string) bool {
	if fn == nil || fn.Name() != name {
		return false
	}
	rp, rt := namedRecv(fn)
	if typeName == "" {
		return rt == "" && fn.Pkg() != nil && fn.Pkg().Path() == pkgPath
	}
	return rp == pkgPath && rt == typeName
}

// chainString flattens a receiver expression of idents and field
// selectors into a dotted path ("ix.snap", "t.sh.pins"). Expressions
// containing anything else (calls, indexes) return "" — distinct sites
// that must not be conflated.
func chainString(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		base := chainString(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	}
	return ""
}

// chainRoot returns the leading identifier of a flattened chain.
func chainRoot(chain string) string {
	for i := 0; i < len(chain); i++ {
		if chain[i] == '.' {
			return chain[:i]
		}
	}
	return chain
}

// funcScopes yields the name and body of every function declaration in
// the file. Function literals are walked as part of the enclosing body.
func funcScopes(f *ast.File, fn func(name string, body *ast.BlockStmt)) {
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
			fn(fd.Name.Name, fd.Body)
		}
	}
}

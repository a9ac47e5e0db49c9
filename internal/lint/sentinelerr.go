package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"unicode"
	"unicode/utf8"
)

// AnalyzerSentinelErr flags identity comparisons (== / !=) against
// sentinel error values — package-level error variables whose name
// matches Err[A-Z]… — and tells the author to use errors.Is. The
// storage and facade layers wrap sentinels with %w context as errors
// propagate (storage's ErrChecksum carries the page id, the facade's
// ErrNoSuchObject carries the object id), so an identity comparison
// silently stops matching the moment a wrap is added upstream.
var AnalyzerSentinelErr = &Analyzer{
	Name: "sentinelerr",
	Doc:  "flags ==/!= comparisons against Err* sentinel values; use errors.Is so wrapped errors still match",
	Run:  runSentinelErr,
}

func runSentinelErr(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
				return true
			}
			for _, side := range []ast.Expr{be.X, be.Y} {
				if name, ok := sentinelErrName(pass.Info, side); ok {
					pass.Report(be.Pos(),
						"comparing against sentinel %s with %s breaks once the error is wrapped; use errors.Is(err, %s)", name, be.Op, name)
					return true // one diagnostic per comparison
				}
			}
			return true
		})
	}
}

// sentinelErrName reports whether e names a package-level error variable
// of the Err[A-Z]… naming convention.
func sentinelErrName(info *types.Info, e ast.Expr) (string, bool) {
	var id *ast.Ident
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = x
	case *ast.SelectorExpr:
		id = x.Sel
	default:
		return "", false
	}
	obj, ok := info.Uses[id].(*types.Var)
	if !ok || obj.Parent() == nil || obj.Pkg() == nil {
		return "", false
	}
	// Package-level only: method-local err variables never match anyway
	// because of the naming check, but be precise.
	if obj.Parent() != obj.Pkg().Scope() {
		return "", false
	}
	name := obj.Name()
	if len(name) <= 3 || name[:3] != "Err" {
		return "", false
	}
	if r, _ := utf8.DecodeRuneInString(name[3:]); !unicode.IsUpper(r) {
		return "", false
	}
	// Must actually be an error.
	errType := types.Universe.Lookup("error").Type()
	if !types.AssignableTo(obj.Type(), errType) {
		return "", false
	}
	return name, true
}

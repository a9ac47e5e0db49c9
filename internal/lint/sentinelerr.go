package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
	"unicode"
	"unicode/utf8"
)

// AnalyzerSentinelErr guards the errors.Is contract on sentinel errors —
// package-level error variables named Err[A-Z]… — from both ends. The
// storage and facade layers wrap sentinels with context as errors
// propagate (storage's ErrChecksum carries the page id, the facade's
// ErrNoSuchObject the object id), so:
//
//   - a comparison with == or != stops matching the moment a wrap is
//     added upstream: use errors.Is;
//   - a sentinel passed to fmt.Errorf must be its first argument, under a
//     constant format that begins with %w, so the wrap keeps it in the
//     Unwrap chain errors.Is walks. Every wrap in the tree has this form,
//     which leaves no format verbs to interpret;
//   - errors.Is against an error built inline (errors.New, fmt.Errorf) is
//     constantly false: nothing can have wrapped a value created there.
var AnalyzerSentinelErr = &Analyzer{
	Name: "sentinelerr",
	Doc:  "flags ==/!= against Err* sentinels, sentinels fmt.Errorf does not wrap first with %w, and errors.Is against inline-built errors",
	Run:  runSentinelErr,
}

func runSentinelErr(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if n.Op != token.EQL && n.Op != token.NEQ {
					return true
				}
				for _, side := range []ast.Expr{n.X, n.Y} {
					if name, ok := sentinelErrName(pass.Info, side); ok {
						pass.Report(n.Pos(), "comparing against sentinel %s with %s breaks once the error is wrapped; use errors.Is(err, %s)", name, n.Op, name)
						break // one diagnostic per comparison
					}
				}
			case *ast.CallExpr:
				fn := calleeFunc(pass.Info, n)
				if matchesFunc(fn, "fmt", "", "Errorf") {
					checkErrorfWrap(pass, n)
				} else if matchesFunc(fn, "errors", "", "Is") && len(n.Args) == 2 && freshError(pass.Info, n.Args[1]) {
					pass.Report(n.Pos(), "errors.Is against an error constructed inline is always false: nothing can have wrapped a value created here; compare against a package-level sentinel instead")
				}
			}
			return true
		})
	}
}

// checkErrorfWrap flags sentinel arguments of fmt.Errorf other than a
// first argument under a constant format beginning with %w.
func checkErrorfWrap(pass *Pass, call *ast.CallExpr) {
	format := pass.Info.Types[call.Args[0]].Value
	wrapsFirst := format != nil && format.Kind() == constant.String && strings.HasPrefix(constant.StringVal(format), "%w")
	for i, arg := range call.Args[1:] {
		if name, ok := sentinelErrName(pass.Info, arg); ok && (i > 0 || !wrapsFirst) {
			pass.Report(arg.Pos(), "sentinel %s must be fmt.Errorf's first argument under a constant format beginning with %%w: in any other form it may be flattened out of the Unwrap chain, and errors.Is(err, %s) stops matching", name, name)
		}
	}
}

// freshError reports whether e is a direct call to errors.New or
// fmt.Errorf.
func freshError(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := calleeFunc(info, call)
	return matchesFunc(fn, "errors", "", "New") || matchesFunc(fn, "fmt", "", "Errorf")
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
	if !ok || obj.Pkg() == nil || obj.Parent() != obj.Pkg().Scope() {
		return "", false
	}
	name := obj.Name()
	if len(name) <= 3 || name[:3] != "Err" {
		return "", false
	}
	if r, _ := utf8.DecodeRuneInString(name[3:]); !unicode.IsUpper(r) {
		return "", false
	}
	return name, types.AssignableTo(obj.Type(), types.Universe.Lookup("error").Type())
}

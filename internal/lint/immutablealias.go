package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// AnalyzerImmutableAlias enforces the PR 5 aliasing contract: values
// handed out by the storage and cache layers are shared between
// concurrent readers and must be treated as immutable. ReadRecord and
// ReadRecordAt (on the Backend interface and on the Pager) return a
// memory-resident record's own bytes, and DecodedCache.Get returns the
// cached object. Writing through any of
// them corrupts every other reader of the same page — a data race no
// test reliably catches because the cache must be warm and shared.
//
// The other way round, WriteRecord (on the Backend interface and on the
// Pager) keeps the buffer it is handed and serves it to every reader of
// the record, so a local buffer passed to it is shared from that call on.
//
// The analyzer taints values assigned from those sources and buffers
// passed to those sinks (following plain copies, re-slicings, and type
// assertions within the function) and flags element writes, copy-into,
// append (which may write the shared backing array) and in-place sorts of
// tainted values. A field chain rooted at a local variable (b.inv) is
// tracked as a variable is.
var AnalyzerImmutableAlias = &Analyzer{
	Name: "immutablealias",
	Doc:  "flags writes through shared values returned by ReadRecord, ReadRecordAt and DecodedCache.Get, and through buffers handed to WriteRecord",
	Run:  runImmutableAlias,
}

// sharedSource names a method whose result (a source) or argument (a
// sink) at index at is shared immutable storage.
type sharedSource struct {
	pkg, recv, name string
	at              int
}

// sharedSources lists the functions whose results alias shared immutable
// storage: (pkg, receiver type, method) -> index of the shared result.

var sharedSources = []sharedSource{
	{"repro/internal/storage", "Backend", "ReadRecord", 0},
	{"repro/internal/storage", "Pager", "ReadRecord", 0},
	{"repro/internal/storage", "Backend", "ReadRecordAt", 0},
	{"repro/internal/storage", "Pager", "ReadRecordAt", 0},
	{"repro/internal/storage", "DecodedCache", "Get", 0},
}

// handoverSinks lists the functions that keep a buffer they are passed as
// a shared record: (pkg, receiver type, method) -> index of the argument.
var handoverSinks = []sharedSource{
	{"repro/internal/storage", "Backend", "WriteRecord", 0},
	{"repro/internal/storage", "Pager", "WriteRecord", 0},
}

// sortCalls are stdlib helpers that mutate their slice argument in
// place: (pkg path, func name, slice arg index).
var sortCalls = [][2]string{
	{"sort", "Slice"}, {"sort", "SliceStable"}, {"sort", "Sort"},
	{"slices", "Sort"}, {"slices", "SortFunc"}, {"slices", "SortStableFunc"}, {"slices", "Reverse"},
}

func runImmutableAlias(pass *Pass) {
	for _, f := range pass.Files {
		funcScopes(f, func(name string, body *ast.BlockStmt) {
			checkAliasScope(pass, body)
		})
	}
}

// checkAliasScope walks one function body and reports writes through
// tainted values. Statements are visited in source order; taint is a
// simple forward set over local objects.
func checkAliasScope(pass *Pass, body *ast.BlockStmt) {
	tainted := map[aliasKey]bool{}
	info := pass.Info

	// keyOf names the variable, or the field chain rooted at a local
	// variable, that e denotes.
	var keyOf func(e ast.Expr) (aliasKey, bool)
	keyOf = func(e ast.Expr) (aliasKey, bool) {
		switch e := ast.Unparen(e).(type) {
		case *ast.Ident:
			o := info.ObjectOf(e)
			return aliasKey{root: o}, o != nil
		case *ast.SelectorExpr:
			if sel := info.Selections[e]; sel != nil && sel.Kind() == types.FieldVal {
				k, ok := keyOf(e.X)
				v, local := k.root.(*types.Var)
				return aliasKey{k.root, k.path + "." + e.Sel.Name}, ok && (k.path != "" || local && v.Parent() != v.Pkg().Scope())
			}
		}
		return aliasKey{}, false
	}
	// taintedExpr reports whether e denotes (or re-slices) a tainted value.
	var taintedExpr func(e ast.Expr) bool
	taintedExpr = func(e ast.Expr) bool {
		switch e := ast.Unparen(e).(type) {
		case *ast.Ident, *ast.SelectorExpr:
			k, ok := keyOf(e)
			return ok && tainted[k]
		case *ast.SliceExpr:
			return taintedExpr(e.X)
		case *ast.IndexExpr:
			return taintedExpr(e.X) // ps[0].F writes through ps
		case *ast.TypeAssertExpr:
			return taintedExpr(e.X)
		case *ast.CallExpr:
			if src, ok := sharedSourceOf(info, e); ok && src == 0 {
				return true // direct use: f.Terms()[i] = ...
			}
		}
		return false
	}

	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			// The calls of both sides run before the assignment: check
			// them (and taint what they hand over) under the taint as it
			// stands, then propagate taint from RHS to LHS, killing it on
			// overwrite — so buf = append(buf, …) of a shared buf is
			// flagged before buf is taken as fresh.
			for _, e := range n.Rhs {
				ast.Inspect(e, visit)
			}
			for _, e := range n.Lhs {
				ast.Inspect(e, visit)
			}
			for i, lhs := range n.Lhs {
				key, ok := keyOf(lhs)
				var rhs ast.Expr
				if len(n.Rhs) == len(n.Lhs) {
					rhs = n.Rhs[i]
				} else if len(n.Rhs) == 1 {
					rhs = n.Rhs[0]
				}
				// Writes through tainted element/slice targets.
				switch l := ast.Unparen(lhs).(type) {
				case *ast.IndexExpr:
					if taintedExpr(l.X) {
						pass.Report(n.Pos(), "write through shared value %s: records read from or handed to the store, and cached values, are shared between concurrent readers and immutable; copy before modifying", exprString(l.X))
					}
				case *ast.StarExpr:
					if taintedExpr(l.X) {
						pass.Report(n.Pos(), "write through shared value %s: shared cache values are immutable; copy before modifying", exprString(l.X))
					}
				case *ast.SelectorExpr:
					if taintedExpr(l.X) {
						pass.Report(n.Pos(), "field write through shared value %s: shared cache values are immutable; copy before modifying", exprString(l.X))
					}
				}
				if !ok || rhs == nil {
					continue
				}
				newTaint := false
				switch r := ast.Unparen(rhs).(type) {
				case *ast.CallExpr:
					if resIdx, ok := sharedSourceOf(info, r); ok {
						// Multi-assign (v, hit, err := pool.Read(id)):
						// taint the result at the shared index; for a
						// single-result call, index 0.
						if len(n.Lhs) == 1 || i == resIdx {
							newTaint = true
						}
					}
				default:
					if taintedExpr(rhs) {
						newTaint = true
					}
				}
				if newTaint {
					tainted[key] = true
				} else if n.Tok.String() == ":=" || len(n.Rhs) == len(n.Lhs) {
					for t := range tainted { // overwritten with a fresh value, and so every chain through it
						if t.root == key.root && strings.HasPrefix(t.path+".", key.path+".") {
							delete(tainted, t)
						}
					}
				}
			}
			return false
		case *ast.CallExpr:
			checkAliasCall(pass, n, taintedExpr)
			if arg, ok := handoverArg(info, n); ok {
				if k, ok := keyOf(arg); ok {
					tainted[k] = true // the store's record from here on
				}
			}
		}
		return true
	}
	ast.Inspect(body, visit)
}

// aliasKey is what taint attaches to: a variable, or with a path (".inv")
// the field chain rooted at it.
type aliasKey struct {
	root types.Object
	path string
}

// handoverArg returns the buffer call hands over to a sink, if it calls
// one.
func handoverArg(info *types.Info, call *ast.CallExpr) (ast.Expr, bool) {
	fn := calleeFunc(info, call)
	if fn == nil {
		return nil, false
	}
	for _, s := range handoverSinks {
		if matchesFunc(fn, s.pkg, s.recv, s.name) && s.at < len(call.Args) {
			return call.Args[s.at], true
		}
	}
	return nil, false
}

// checkAliasCall flags mutating calls involving tainted values.
func checkAliasCall(pass *Pass, call *ast.CallExpr, taintedExpr func(ast.Expr) bool) {
	info := pass.Info
	// Builtins: append and copy.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "append":
				if len(call.Args) > 0 && taintedExpr(call.Args[0]) {
					pass.Report(call.Pos(), "append to shared value %s may write its shared backing array; copy the slice before growing it", exprString(call.Args[0]))
				}
			case "copy":
				if len(call.Args) > 0 && taintedExpr(call.Args[0]) {
					pass.Report(call.Pos(), "copy into shared value %s: shared cache values are immutable; allocate a private destination", exprString(call.Args[0]))
				}
			}
			return
		}
	}
	fn := calleeFunc(info, call)
	if fn == nil {
		return
	}
	// In-place sorts of a tainted slice.
	if fn.Pkg() != nil {
		for _, sc := range sortCalls {
			if fn.Pkg().Path() == sc[0] && fn.Name() == sc[1] {
				if len(call.Args) > 0 && taintedExpr(call.Args[0]) {
					pass.Report(call.Pos(), "in-place sort of shared value %s: copy before reordering", exprString(call.Args[0]))
				}
				return
			}
		}
	}
}

// sharedSourceOf reports whether call invokes a shared-value source and
// the index of the shared result.
func sharedSourceOf(info *types.Info, call *ast.CallExpr) (int, bool) {
	fn := calleeFunc(info, call)
	if fn == nil {
		return 0, false
	}
	for _, s := range sharedSources {
		if matchesFunc(fn, s.pkg, s.recv, s.name) {
			return s.at, true
		}
	}
	return 0, false
}

func exprString(e ast.Expr) string {
	if s := chainString(e); s != "" {
		return s
	}
	return types.ExprString(e)
}

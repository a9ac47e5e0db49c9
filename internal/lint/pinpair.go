package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AnalyzerPinPair enforces the resource discipline of the snapshot
// layer: an epoch pin, a pinned snapshot or a session must be released or
// handed off. A leaked pin blocks retired-page reclamation forever; a
// leaked session delays it until the GC cleanup fires. Two rules, each
// per function:
//
//   - TryPin (storage.EpochPins, irtree.Tree) requires an Unpin on the
//     same receiver chain, unless the function merely delegates (the
//     TryPin call is part of a return expression) or the pinned
//     receiver's root is returned — the caller then owns the pin.
//
//   - Index.acquire and the session constructors (NewSession, newSession,
//     NewUnpreparedSession) return a value holding a pin. It must be
//     released (Unpin or release rooted at it for acquire, Close for
//     sessions — a call, a defer, or a method-value reference all count)
//     or handed off: returning the value, storing it into a composite
//     literal or a field, or passing it to another call transfers
//     ownership (returning s.Run(req) does not). A call whose result is
//     neither assigned nor returned drops the pin.
var AnalyzerPinPair = &Analyzer{
	Name: "pinpair",
	Doc:  "flags epoch pins, pinned snapshots and sessions that are neither released nor handed off",
	Run:  runPinPair,
}

// tryPinRecvs are the receiver-based pin acquisitions.
var tryPinRecvs = [][2]string{
	{"repro/internal/storage", "EpochPins"},
	{"repro/internal/irtree", "Tree"},
}

// resultPinned are calls whose result carries a pin, with the method
// names that release it.
var resultPinned = []struct {
	pkg, recv, name string
	releases        []string
	what            string
}{
	{"repro", "Index", "acquire", []string{"Unpin", "release"}, "pinned snapshot"},
	{"repro", "Index", "NewSession", []string{"Close"}, "session"},
	{"repro", "Index", "newSession", []string{"Close"}, "session"},
	{"repro", "Index", "NewUnpreparedSession", []string{"Close"}, "session"},
}

func runPinPair(pass *Pass) {
	for _, f := range pass.Files {
		funcScopes(f, func(name string, body *ast.BlockStmt) {
			checkTryPin(pass, name, body)
			checkResultPins(pass, name, body)
		})
	}
}

func checkTryPin(pass *Pass, name string, body *ast.BlockStmt) {
	pins := map[string]ast.Node{}
	unpinned := map[string]bool{}
	returnedRoots := map[string]bool{}
	delegated := map[ast.Node]bool{}

	ast.Inspect(body, func(n ast.Node) bool {
		if ret, ok := n.(*ast.ReturnStmt); ok {
			for _, r := range ret.Results {
				ast.Inspect(r, func(m ast.Node) bool {
					if id, ok := m.(*ast.Ident); ok {
						returnedRoots[id.Name] = true
					}
					if call, ok := m.(*ast.CallExpr); ok {
						delegated[call] = true
					}
					return true
				})
			}
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass.Info, call)
		if fn == nil {
			return true
		}
		chain := chainString(sel.X)
		for _, tp := range tryPinRecvs {
			if matchesFunc(fn, tp[0], tp[1], "TryPin") && chain != "" && !delegated[call] {
				if _, ok := pins[chain]; !ok {
					pins[chain] = call
				}
			}
			if matchesFunc(fn, tp[0], tp[1], "Unpin") && chain != "" {
				unpinned[chain] = true
			}
		}
		return true
	})
	// Method-value references (p.once.Do(p.tree.Unpin)) also release.
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Unpin" {
			return true
		}
		if fn, ok := pass.Info.Uses[sel.Sel].(*types.Func); ok {
			for _, tp := range tryPinRecvs {
				rp, rt := namedRecv(fn)
				if rp == tp[0] && rt == tp[1] {
					if chain := chainString(sel.X); chain != "" {
						unpinned[chain] = true
					}
				}
			}
		}
		return true
	})
	for chain, at := range pins {
		if unpinned[chain] || returnedRoots[chainRoot(chain)] {
			continue
		}
		pass.Report(at.Pos(), "%s pins %s via TryPin but never calls Unpin on it and the pinned value does not escape: a leaked pin blocks retired-page reclamation forever", name, chain)
	}
}

func checkResultPins(pass *Pass, name string, body *ast.BlockStmt) {
	type pinSite struct {
		obj  types.Object
		at   ast.Node
		what string
		rels []string
	}
	var sites []pinSite

	// Find acquisitions assigned to a local variable.
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass.Info, call)
		if fn == nil {
			return true
		}
		for _, rp := range resultPinned {
			if !matchesFunc(fn, rp.pkg, rp.recv, rp.name) {
				continue
			}
			id, ok := ast.Unparen(as.Lhs[0]).(*ast.Ident)
			if !ok || id.Name == "_" {
				pass.Report(call.Pos(), "%s discards the %s returned by %s: it carries an epoch pin that must be released", name, rp.what, rp.name)
				continue
			}
			obj := pass.Info.Defs[id]
			if obj == nil {
				obj = pass.Info.Uses[id]
			}
			if obj != nil {
				sites = append(sites, pinSite{obj: obj, at: call, what: rp.what, rels: rp.releases})
			}
		}
		return true
	})
	// Un-assigned acquisition: fine only when delegated via return.
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass.Info, call)
		for _, rp := range resultPinned {
			if matchesFunc(fn, rp.pkg, rp.recv, rp.name) && !partOfReturn(body, call) && !assigned(body, call) {
				pass.Report(call.Pos(), "%s drops the %s returned by %s on the floor: close or release it", name, rp.what, rp.name)
			}
		}
		return true
	})

	for _, site := range sites {
		released, escaped := false, false
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				// v.Close / v.tree.Unpin — as a call, a defer, or a
				// method value.
				for _, rel := range site.rels {
					if n.Sel.Name == rel && rootObj(pass.Info, n.X) == site.obj {
						released = true
					}
				}
			case *ast.ReturnStmt:
				for _, r := range n.Results {
					if isObj(pass.Info, r, site.obj) {
						escaped = true
					}
				}
			case *ast.CompositeLit:
				for _, el := range n.Elts {
					if isObj(pass.Info, el, site.obj) {
						escaped = true
					}
				}
			case *ast.SendStmt:
				if isObj(pass.Info, n.Value, site.obj) {
					escaped = true
				}
			case *ast.AssignStmt:
				// Storing into a field or element hands ownership off.
				for i, lhs := range n.Lhs {
					if _, isSel := ast.Unparen(lhs).(*ast.SelectorExpr); !isSel {
						if _, isIdx := ast.Unparen(lhs).(*ast.IndexExpr); !isIdx {
							continue
						}
					}
					var rhs ast.Expr
					if len(n.Rhs) == len(n.Lhs) {
						rhs = n.Rhs[i]
					} else if len(n.Rhs) == 1 {
						rhs = n.Rhs[0]
					}
					if rhs != nil && isObj(pass.Info, rhs, site.obj) {
						escaped = true
					}
				}
			case *ast.CallExpr:
				// Passing the value as an argument transfers ownership;
				// method calls on the value do not.
				for _, arg := range n.Args {
					if isObj(pass.Info, arg, site.obj) {
						escaped = true
					}
				}
			}
			return true
		})
		if !released && !escaped {
			pass.Report(site.at.Pos(), "%s acquires a %s that is never closed or handed off: release it on every return path (defer right after the error check)", name, site.what)
		}
	}
}

// rootObj resolves the root identifier's object of a selector chain.
func rootObj(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if o := info.Uses[x]; o != nil {
				return o
			}
			return info.Defs[x]
		case *ast.SelectorExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// isObj reports whether expr is obj itself (a keyed element's value or
// an address-of counts): what a return, a send, a store or a call argument
// hands over. A method call on obj, or a field of it, hands nothing over.
func isObj(info *types.Info, expr ast.Expr, obj types.Object) bool {
	switch e := ast.Unparen(expr).(type) {
	case *ast.KeyValueExpr:
		return isObj(info, e.Value, obj)
	case *ast.UnaryExpr:
		return e.Op == token.AND && isObj(info, e.X, obj)
	case *ast.Ident:
		return info.Uses[e] == obj
	}
	return false
}

// partOfReturn reports whether call appears inside a return statement.
func partOfReturn(body *ast.BlockStmt, call *ast.CallExpr) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return !found
		}
		for _, r := range ret.Results {
			ast.Inspect(r, func(m ast.Node) bool {
				if m == ast.Node(call) {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}

// assigned reports whether call is the RHS of an assignment.
func assigned(body *ast.BlockStmt, call *ast.CallExpr) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok {
			for _, r := range as.Rhs {
				if ast.Unparen(r) == ast.Expr(call) {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

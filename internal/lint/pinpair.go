package lint

import (
	"go/ast"
	"go/types"
)

// AnalyzerPinPair enforces the PR 6/7 resource discipline: epoch pins
// and prepared sessions must be released on every path, and mutex
// acquisitions must have a matching release in the same function scope.
// A leaked pin silently blocks retired-page reclamation forever (the
// storage-leak class PR 7 fixed); a leaked session delays it until the
// GC cleanup fires; a lock without an unlock deadlocks the writer path.
//
// Three rules, each per function:
//
//   - sync.Mutex/RWMutex: a Lock (RLock) on a receiver chain with no
//     Unlock (RUnlock) on the same chain anywhere in the scope —
//     including defers — is flagged. Function literals are separate
//     scopes: a closure must not rely on its enclosing function to
//     unlock what it locked.
//
//   - TryPin (storage.EpochPins, irtree.Tree): requires an Unpin on the
//     same chain, unless the function merely delegates (the TryPin call
//     is part of a return expression) or the pinned receiver's root
//     escapes by being returned — the caller then owns the pin.
//
//   - Index.acquire / Index.NewSession / Index.NewParallelSession /
//     Index.NewUnpreparedSession: the result holds a pin; the function
//     must release it (Unpin rooted at the result for acquire, Close for
//     sessions — a call, a defer, or a method-value reference all count)
//     or hand it off: returning the result, storing it into a composite
//     literal or a field, or
//     passing it to another call transfers ownership.
var AnalyzerPinPair = &Analyzer{
	Name: "pinpair",
	Doc:  "flags epoch pins, sessions, and mutex acquisitions without a matching release on every path",
	Run:  runPinPair,
}

// lockPairs maps sync lock methods to their releases, per receiver chain.
var lockPairs = []struct {
	pkg, recv, lock, unlock string
}{
	{"sync", "Mutex", "Lock", "Unlock"},
	{"sync", "RWMutex", "Lock", "Unlock"},
	{"sync", "RWMutex", "RLock", "RUnlock"},
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
	{"repro", "Index", "NewParallelSession", []string{"Close"}, "session"},
	{"repro", "Index", "NewUnpreparedSession", []string{"Close"}, "session"},
}

func runPinPair(pass *Pass) {
	for _, f := range pass.Files {
		funcScopes(f, func(name string, decl *ast.FuncDecl, body *ast.BlockStmt) {
			checkLockBalance(pass, name, body)
			checkTryPin(pass, name, body)
			checkResultPins(pass, name, body)
			// Function literals are their own lock scopes.
			ast.Inspect(body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					checkLockBalance(pass, name+" (func literal)", lit.Body)
				}
				return true
			})
		})
	}
}

// scopeCalls visits the calls of one lock scope: the body without
// descending into nested function literals.
func scopeCalls(body *ast.BlockStmt, fn func(call *ast.CallExpr)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			fn(call)
		}
		return true
	})
}

func checkLockBalance(pass *Pass, name string, body *ast.BlockStmt) {
	type chainKey struct{ chain, unlock string }
	locks := map[chainKey]ast.Node{}
	releases := map[chainKey]bool{}
	scopeCalls(body, func(call *ast.CallExpr) {
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return
		}
		fn := calleeFunc(pass.Info, call)
		if fn == nil {
			return
		}
		chain := chainString(sel.X)
		if chain == "" {
			return
		}
		for _, lp := range lockPairs {
			if matchesFunc(fn, lp.pkg, lp.recv, lp.lock) {
				k := chainKey{chain, lp.unlock}
				if _, ok := locks[k]; !ok {
					locks[k] = call
				}
			}
			if matchesFunc(fn, lp.pkg, lp.recv, lp.unlock) {
				releases[chainKey{chain, lp.unlock}] = true
			}
		}
	})
	for k, at := range locks {
		if !releases[k] {
			pass.Report(at.Pos(), "%s locks %s but never calls %s in the same function scope: release on every path (defer right after acquiring)", name, k.chain, k.unlock)
		}
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
	if len(sites) == 0 {
		// Un-assigned acquisition: fine only when delegated via return.
		ast.Inspect(body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.Info, call)
			for _, rp := range resultPinned {
				if matchesFunc(fn, rp.pkg, rp.recv, rp.name) && !partOfReturn(body, call) {
					if _, assigned := enclosingAssign(body, call); !assigned {
						pass.Report(call.Pos(), "%s drops the %s returned by %s on the floor: close or release it", name, rp.what, rp.name)
					}
				}
			}
			return true
		})
		return
	}

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
					if usesObj(pass.Info, r, site.obj) {
						escaped = true
					}
				}
			case *ast.CompositeLit:
				for _, el := range n.Elts {
					if usesObj(pass.Info, el, site.obj) {
						escaped = true
					}
				}
			case *ast.SendStmt:
				if usesObj(pass.Info, n.Value, site.obj) {
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
					if rhs != nil && usesObj(pass.Info, rhs, site.obj) {
						escaped = true
					}
				}
			case *ast.CallExpr:
				// Passing the value as an argument transfers ownership;
				// method calls on the value do not.
				for _, arg := range n.Args {
					if usesObj(pass.Info, arg, site.obj) {
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

// usesObj reports whether expr references obj anywhere.
func usesObj(info *types.Info, expr ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
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

// enclosingAssign reports whether call is the RHS of an assignment.
func enclosingAssign(body *ast.BlockStmt, call *ast.CallExpr) (*ast.AssignStmt, bool) {
	var out *ast.AssignStmt
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return out == nil
		}
		for _, r := range as.Rhs {
			if ast.Unparen(r) == ast.Expr(call) {
				out = as
			}
		}
		return out == nil
	})
	return out, out != nil
}

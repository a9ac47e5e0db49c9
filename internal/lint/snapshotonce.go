package lint

import (
	"go/ast"
	"go/types"
)

// AnalyzerSnapshotOnce enforces the PR 6 snapshot discipline: every
// operation loads the atomically-published snapshot pointer exactly
// once and threads the loaded value through. A second Load in the same
// function can observe a different epoch — state derived from the first
// load (thresholds, vocabulary views, object counts) silently disagrees
// with state derived from the second, the torn-epoch read the
// copy-on-write design exists to rule out.
//
// Detected loads are (a) Load calls on sync/atomic.Pointer[T] receivers
// and (b) calls to the facade's pin-and-load helper Index.acquire. Both
// are keyed by the owning receiver chain (the pointer's parent for
// Load, the receiver for acquire), so two loads of the same index in
// one function are flagged while loads of unrelated pointers are not.
// A retry loop around a single textual Load (the acquire pattern
// itself) is fine: the loop re-executes one load site, it does not
// derive state across two.
var AnalyzerSnapshotOnce = &Analyzer{
	Name: "snapshotonce",
	Doc:  "flags functions that load the published snapshot pointer more than once per operation",
	Run:  runSnapshotOnce,
}

// snapshotLoaders are non-atomic helpers that perform a snapshot load
// internally: (package path, receiver type, method, loaded pointer
// field). The field joins the helper's key with raw Load calls on the
// same pointer, so mixing ix.acquire() with ix.snap.Load() in one
// function is still two loads of one snapshot.
var snapshotLoaders = [][4]string{
	{"repro", "Index", "acquire", "snap"},
}

func runSnapshotOnce(pass *Pass) {
	for _, f := range pass.Files {
		funcScopes(f, func(name string, body *ast.BlockStmt) {
			// owner chain -> load sites, in source order.
			seen := map[string][]*ast.CallExpr{}
			var order []string
			ast.Inspect(body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				owner, ok := snapshotLoadOwner(pass.Info, call)
				if !ok || owner == "" {
					return true
				}
				if _, dup := seen[owner]; !dup {
					order = append(order, owner)
				}
				seen[owner] = append(seen[owner], call)
				return true
			})
			for _, owner := range order {
				calls := seen[owner]
				for _, c := range calls[1:] {
					pass.Report(c.Pos(),
						"snapshot of %q loaded more than once in %s: a second load can observe a newer epoch (torn-epoch read); load once and pass the snapshot through", owner, name)
				}
			}
		})
	}
}

// snapshotLoadOwner reports whether call loads a published snapshot and,
// if so, the flattened chain of the owning value: for ix.snap.Load()
// that is "ix" (the pointer's parent), for ix.acquire() it is "ix".
func snapshotLoadOwner(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn := calleeFunc(info, call)
	if fn == nil {
		return "", false
	}
	for _, ld := range snapshotLoaders {
		if matchesFunc(fn, ld[0], ld[1], ld[2]) {
			if recv := chainString(sel.X); recv != "" {
				return recv + "." + ld[3], true
			}
			return "", false
		}
	}
	if fn.Name() != "Load" {
		return "", false
	}
	if rp, rt := namedRecv(fn); rp != "sync/atomic" || rt != "Pointer" {
		return "", false
	}
	// ix.snap.Load(): the owner is the full pointer chain, so two loads
	// of one pointer group while sibling atomic fields stay apart.
	ptrChain := chainString(sel.X)
	if ptrChain == "" {
		return "", false
	}
	return ptrChain, true
}

package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// The two comment directives the suite understands:
//
//	//maxbr:hotpath
//	    In a function's doc comment: the function's body must stay
//	    allocation-free (enforced by the hotpathalloc analyzer).
//
//	//maxbr:ignore <analyzer> <reason...>
//	    Suppresses <analyzer>'s diagnostics on the same line (trailing
//	    comment) or on the line directly below (standalone comment). The
//	    reason is mandatory: a suppression without one is itself a
//	    diagnostic, so every deviation from an invariant carries its
//	    justification in the tree.
const (
	hotpathDirective = "//maxbr:hotpath"
	ignoreDirective  = "//maxbr:ignore"
)

// ignoreEntry is one parsed //maxbr:ignore comment.
type ignoreEntry struct {
	analyzer string
	// lines the suppression covers (the comment's own line and the next).
	lines [2]int
}

// parseIgnores collects the file's //maxbr:ignore directives. Malformed
// directives (missing analyzer or reason, unknown analyzer name) are
// reported as diagnostics of the suite itself via report.
func parseIgnores(fset *token.FileSet, f *ast.File, known map[string]bool, report func(pos token.Pos, format string, args ...any)) []ignoreEntry {
	var out []ignoreEntry
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, ignoreDirective) {
				continue
			}
			rest := strings.TrimPrefix(c.Text, ignoreDirective)
			if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
				continue // some other maxbr:ignoreX token
			}
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				report(c.Pos(), "maxbr:ignore needs an analyzer name and a reason")
				continue
			}
			name := fields[0]
			if !known[name] {
				report(c.Pos(), "maxbr:ignore names unknown analyzer %q", name)
				continue
			}
			if len(fields) == 1 {
				report(c.Pos(), "maxbr:ignore %s carries no reason; suppressions must say why", name)
				continue
			}
			line := fset.Position(c.Pos()).Line
			out = append(out, ignoreEntry{analyzer: name, lines: [2]int{line, line + 1}})
		}
	}
	return out
}

// hotpathFuncs returns the file's function declarations annotated
// //maxbr:hotpath in their doc comment.
func hotpathFuncs(f *ast.File) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Doc == nil {
			continue
		}
		for _, c := range fd.Doc.List {
			if c.Text == hotpathDirective || strings.HasPrefix(c.Text, hotpathDirective+" ") {
				out = append(out, fd)
				break
			}
		}
	}
	return out
}

// suppressed reports whether a diagnostic of analyzer at (file, line) is
// covered by one of the file's ignore entries.
func suppressed(ignores []ignoreEntry, analyzer string, line int) bool {
	for _, ig := range ignores {
		if ig.analyzer != analyzer {
			continue
		}
		if line == ig.lines[0] || line == ig.lines[1] {
			return true
		}
	}
	return false
}

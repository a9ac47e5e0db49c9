package lint

import (
	"fmt"
	"go/token"
	"sort"
)

// Analyzers returns the full maxbrlint suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		AnalyzerSnapshotOnce,
		AnalyzerImmutableAlias,
		AnalyzerPinPair,
		AnalyzerHotPathAlloc,
		AnalyzerSentinelErr,
		AnalyzerExhaustiveEnum,
	}
}

// knownNames is the //maxbr:ignore vocabulary.
func knownNames() map[string]bool {
	m := make(map[string]bool)
	for _, a := range Analyzers() {
		m[a.Name] = true
	}
	return m
}

// RunAnalyzers applies the analyzers to one package and returns the
// surviving diagnostics: //maxbr:ignore-suppressed findings are dropped,
// and malformed ignore directives are reported under the "directive"
// pseudo-analyzer (which cannot itself be suppressed). Diagnostics are
// sorted by position.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	var raw []Diagnostic
	known := knownNames()

	var ignores []ignoreEntry
	for _, f := range pkg.Files {
		ignores = append(ignores, parseIgnores(pkg.Fset, f, known, func(pos token.Pos, format string, args ...any) {
			raw = append(raw, Diagnostic{
				Pos:      pkg.Fset.Position(pos),
				Analyzer: "directive",
				Message:  fmt.Sprintf(format, args...),
			})
		})...)
	}

	for _, a := range analyzers {
		name := a.Name
		a.Run(&Pass{
			Fset:  pkg.Fset,
			Files: pkg.Files,
			Pkg:   pkg.Pkg,
			Info:  pkg.Info,
			Report: func(pos token.Pos, format string, args ...any) {
				raw = append(raw, Diagnostic{
					Pos:      pkg.Fset.Position(pos),
					Analyzer: name,
					Message:  fmt.Sprintf(format, args...),
				})
			},
		})
	}

	var out []Diagnostic
	for _, d := range raw {
		if d.Analyzer != "directive" && suppressed(ignores, d.Analyzer, d.Pos.Line) {
			continue
		}
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out
}

// Run loads the packages of ./... under dir and applies the whole suite
// to each: the maxbrlint command.
func Run(dir string) ([]Diagnostic, error) {
	loader, err := NewLoader(dir)
	if err != nil {
		return nil, err
	}
	pkgs, err := loader.Load()
	if err != nil {
		return nil, err
	}
	var out []Diagnostic
	for _, pkg := range pkgs {
		out = append(out, RunAnalyzers(pkg, Analyzers())...)
	}
	return out, nil
}

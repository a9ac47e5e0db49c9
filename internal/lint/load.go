package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Package is one type-checked package ready for analysis.
type Package struct {
	PkgPath string
	Fset    *token.FileSet
	Files   []*ast.File
	Pkg     *types.Package
	Info    *types.Info
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
}

// Loader type-checks the module's packages from source, resolving every
// import through compiler export data produced by `go list -export`. One
// Loader shares a file set and an import cache across all packages it
// loads.
type Loader struct {
	fset    *token.FileSet
	targets []*listPkg // the module's packages, in import-path order
	imp     types.Importer
}

// NewLoader lists the packages of ./... under dir (a directory inside
// the module) with their full dependency closure and its export data, in
// one `go list` run. The listed packages themselves — neither
// dependencies only nor standard library — are what Load type-checks.
func NewLoader(dir string) (*Loader, error) {
	cmd := exec.Command("go", "list", "-deps", "-export", "-json=ImportPath,Dir,Export,GoFiles,Standard,DepOnly", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
	l := &Loader{fset: token.NewFileSet()}
	exports := map[string]string{} // import path -> export data file
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		p := &listPkg{}
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard {
			l.targets = append(l.targets, p)
		}
	}
	sort.Slice(l.targets, func(i, j int) bool { return l.targets[i].ImportPath < l.targets[j].ImportPath })
	l.imp = importer.ForCompiler(l.fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(f)
	})
	return l, nil
}

// Fset returns the loader's shared file set, for positioning diagnostics.
func (l *Loader) Fset() *token.FileSet { return l.fset }

// Load type-checks the module's packages, in import-path order.
func (l *Loader) Load() ([]*Package, error) {
	out := make([]*Package, 0, len(l.targets))
	for _, lp := range l.targets {
		files := make([]string, len(lp.GoFiles))
		for i, gf := range lp.GoFiles {
			files[i] = filepath.Join(lp.Dir, gf)
		}
		pkg, err := l.check(lp.ImportPath, files)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// LoadDir type-checks the .go files of one directory outside the go
// tool's view — the analysistest fixture path (testdata is invisible to
// `go list`, but its imports still resolve through the loader's export
// data, so fixtures may use the real repro APIs).
func (l *Loader) LoadDir(dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no .go files in %s", dir)
	}
	return l.check("fixture/"+filepath.Base(dir), files)
}

// check parses and type-checks one package from source.
func (l *Loader) check(importPath string, filenames []string) (*Package, error) {
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(l.fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	conf := types.Config{
		Importer: l.imp,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	pkg, err := conf.Check(importPath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %v", importPath, err)
	}
	return &Package{PkgPath: importPath, Fset: l.fset, Files: files, Pkg: pkg, Info: info}, nil
}

package analysis

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
)

// Package is one type-checked package of the module, parsed from
// source with full syntax (comments included) and type information.
type Package struct {
	Path  string
	Name  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	dirs []directive // the //taq: comment index, built on first use
}

// LoadError reports a package that failed to list, parse, or
// type-check. Pkg is always set when the failing package is known, so
// drivers can name it and exit with a load-error status (2) rather
// than a findings status (1).
type LoadError struct {
	Pkg string // import path of the failing package ("" if unknown)
	Err error
}

func (e *LoadError) Error() string {
	if e.Pkg == "" {
		return e.Err.Error()
	}
	return fmt.Sprintf("package %s: %v", e.Pkg, e.Err)
}

func (e *LoadError) Unwrap() error { return e.Err }

// listedPackage is the subset of `go list -json` output we consume.
type listedPackage struct {
	ImportPath string
	Name       string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	Incomplete bool
	Error      *struct{ Err string }
}

// Load resolves patterns (e.g. "./...") with the go tool, then parses
// and type-checks every matched package from source. Imports — both
// standard library and intra-module — are satisfied from the compiler
// export data that `go list -export` materializes in the build cache,
// so the loader needs no dependencies beyond the toolchain itself.
// dir is where the patterns are resolved (it must lie in the module).
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	// -e keeps go list exiting 0 on broken packages and reports them
	// structurally instead, so a mid-run failure still names the
	// package (the driver turns any *LoadError into exit status 2).
	args := append([]string{"list", "-e", "-deps", "-export", "-json", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, &LoadError{Err: fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.String())}
	}

	exports := make(map[string]string) // import path -> export data file
	var targets []*listedPackage
	dec := json.NewDecoder(&stdout)
	for {
		var lp listedPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, &LoadError{Err: fmt.Errorf("go list: decoding output: %v", err)}
		}
		if lp.Error != nil {
			return nil, &LoadError{Pkg: lp.ImportPath, Err: fmt.Errorf("%s", lp.Error.Err)}
		}
		if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
		if !lp.DepOnly {
			p := lp
			targets = append(targets, &p)
		}
	}

	fset := token.NewFileSet()
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	}
	imp := importer.ForCompiler(fset, "gc", lookup)

	var out []*Package
	for _, lp := range targets {
		pkg, err := typecheck(fset, imp, lp)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

func typecheck(fset *token.FileSet, imp types.Importer, lp *listedPackage) (*Package, error) {
	var files []*ast.File
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, &LoadError{Pkg: lp.ImportPath, Err: fmt.Errorf("parsing %s: %v", name, err)}
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	var firstErr error
	conf := types.Config{
		Importer: imp,
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	tpkg, err := conf.Check(lp.ImportPath, fset, files, info)
	if firstErr != nil {
		return nil, &LoadError{Pkg: lp.ImportPath, Err: fmt.Errorf("type-checking: %v", firstErr)}
	}
	if err != nil {
		return nil, &LoadError{Pkg: lp.ImportPath, Err: fmt.Errorf("type-checking: %v", err)}
	}
	return &Package{
		Path:  lp.ImportPath,
		Name:  tpkg.Name(),
		Dir:   lp.Dir,
		Fset:  fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}, nil
}

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

// Package is one loaded, type-checked package.
type Package struct {
	ImportPath string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// listedPackage is the subset of `go list -json` output the loader
// consumes.
type listedPackage struct {
	ImportPath string
	Dir        string
	Name       string
	Export     string
	GoFiles    []string
	DepOnly    bool
	Standard   bool
	Error      *struct{ Err string }
}

// LoadProgram lists, parses and type-checks the packages matching
// patterns (plus nothing else: dependencies are consumed as compiled
// export data, not re-analyzed) and assembles them into a Program:
// the whole-program view (shared FileSet, package-level call graph)
// the analyzers consume. It shells out to
// `go list -deps -export`, so it works offline against the local
// build cache and needs no third-party modules — the whole point,
// given that this repository pins zero dependencies.
func LoadProgram(dir string, patterns ...string) (*Program, error) {
	pkgs, err := load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	prog := &Program{Pkgs: pkgs}
	if len(pkgs) > 0 {
		prog.Fset = pkgs[0].Fset
	}
	prog.CallGraph = BuildCallGraph(prog)
	return prog, nil
}

func load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-deps", "-export", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.String())
	}

	exports := map[string]string{} // import path -> export data file
	var targets []*listedPackage
	dec := json.NewDecoder(&stdout)
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard && p.Name != "" {
			q := p
			targets = append(targets, &q)
		}
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})

	var pkgs []*Package
	for _, t := range targets {
		pkg, err := check(fset, imp, t)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// check parses and type-checks one listed package from source.
func check(fset *token.FileSet, imp types.Importer, lp *listedPackage) (*Package, error) {
	files := make([]*ast.File, 0, len(lp.GoFiles))
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", lp.ImportPath, err)
		}
		files = append(files, f)
	}
	info := NewInfo()
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(lp.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("%s: type checking: %v", lp.ImportPath, err)
	}
	return &Package{
		ImportPath: lp.ImportPath,
		Fset:       fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}, nil
}

// NewInfo returns a types.Info with every map the analyzers consult.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}

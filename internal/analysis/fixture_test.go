package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

// The fixture harness is a miniature analysistest: each file under
// testdata/ is parsed and type-checked on its own (stdlib imports
// resolve through the source importer, so no build cache or network
// is needed), the analyzer under test runs, and its diagnostics are
// matched against `// want "substring"` comments on the offending
// lines. Unmatched diagnostics and unsatisfied wants both fail.

var (
	fixtureFset = token.NewFileSet()
	fixtureImp  = sync.OnceValue(func() types.Importer {
		return importer.ForCompiler(fixtureFset, "source", nil)
	})
)

var wantRE = regexp.MustCompile(`// want (".*")\s*$`)
var wantStrRE = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

// runFixture applies one analyzer to one testdata file and compares
// its diagnostics with want comments.
func runFixture(t *testing.T, a *Analyzer, filename string) {
	t.Helper()
	path := filepath.Join("testdata", filename)
	f, err := parser.ParseFile(fixtureFset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	info := NewInfo()
	conf := types.Config{Importer: fixtureImp()}
	tpkg, err := conf.Check("fixture/"+strings.TrimSuffix(filename, ".go"), fixtureFset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("typecheck %s: %v", path, err)
	}
	prog := &Program{Fset: fixtureFset, Pkgs: []*Package{{
		ImportPath: tpkg.Path(),
		Fset:       fixtureFset,
		Files:      []*ast.File{f},
		Types:      tpkg,
		Info:       info,
	}}}
	diags, err := RunProgram(prog, []*Analyzer{a})
	if err != nil {
		t.Fatalf("run %s: %v", a.Name, err)
	}

	wants := fixtureWants(t, f)
	for _, d := range diags {
		line := d.Position.Line
		ws := wants[line]
		matched := false
		for i, w := range ws {
			if w != "" && strings.Contains(d.Message, w) {
				ws[i] = "" // consumed
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s", fmt.Sprintf("%s:%d", filename, line), d.Message)
		}
	}
	for line, ws := range wants {
		for _, w := range ws {
			if w != "" {
				t.Errorf("%s:%d: no diagnostic matched want %q", filename, line, w)
			}
		}
	}
}

// loadFixtureProgram builds a Program from testdata/<dir>: each
// subdirectory is one package with import path "fixture/<dir>/<sub>".
// Fixture packages may import each other; type-checking retries until
// the dependency order resolves.
func loadFixtureProgram(t *testing.T, dir string) *Program {
	t.Helper()
	root := filepath.Join("testdata", dir)
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatalf("read fixture dir %s: %v", root, err)
	}

	type rawPkg struct {
		path  string
		files []*ast.File
	}
	var raws []*rawPkg
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		sub := filepath.Join(root, e.Name())
		fis, err := os.ReadDir(sub)
		if err != nil {
			t.Fatalf("read %s: %v", sub, err)
		}
		rp := &rawPkg{path: "fixture/" + dir + "/" + e.Name()}
		for _, fi := range fis {
			if !strings.HasSuffix(fi.Name(), ".go") {
				continue
			}
			path := filepath.Join(sub, fi.Name())
			f, err := parser.ParseFile(fixtureFset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				t.Fatalf("parse %s: %v", path, err)
			}
			rp.files = append(rp.files, f)
		}
		if len(rp.files) > 0 {
			raws = append(raws, rp)
		}
	}

	checked := map[string]*types.Package{}
	imp := &fixtureProgImporter{checked: checked}
	var pkgs []*Package
	pending := raws
	for len(pending) > 0 {
		var next []*rawPkg
		var firstErr error
		for _, rp := range pending {
			info := NewInfo()
			conf := types.Config{Importer: imp}
			tpkg, err := conf.Check(rp.path, fixtureFset, rp.files, info)
			if err != nil {
				firstErr = fmt.Errorf("typecheck %s: %w", rp.path, err)
				next = append(next, rp)
				continue
			}
			checked[rp.path] = tpkg
			pkgs = append(pkgs, &Package{
				ImportPath: rp.path,
				Fset:       fixtureFset,
				Files:      rp.files,
				Types:      tpkg,
				Info:       info,
			})
		}
		if len(next) == len(pending) {
			t.Fatal(firstErr)
		}
		pending = next
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].ImportPath < pkgs[j].ImportPath })

	prog := &Program{Fset: fixtureFset, Pkgs: pkgs}
	prog.CallGraph = BuildCallGraph(prog)
	return prog
}

// fixtureProgImporter resolves already-checked fixture packages by
// import path and delegates everything else (the stdlib) to the
// source importer.
type fixtureProgImporter struct {
	checked map[string]*types.Package
}

func (i *fixtureProgImporter) Import(path string) (*types.Package, error) {
	if p, ok := i.checked[path]; ok {
		return p, nil
	}
	return fixtureImp().Import(path)
}

// runProgramFixture applies one analyzer to a fixture program and
// compares its diagnostics with want comments across every file.
func runProgramFixture(t *testing.T, a *Analyzer, dir string) {
	t.Helper()
	prog := loadFixtureProgram(t, dir)
	diags, err := RunProgram(prog, []*Analyzer{a})
	if err != nil {
		t.Fatalf("run %s: %v", a.Name, err)
	}

	wants := map[string]map[int][]string{}
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			name := fixtureFset.Position(f.Pos()).Filename
			wants[name] = fixtureWants(t, f)
		}
	}
	for _, d := range diags {
		ws := wants[d.Position.Filename][d.Position.Line]
		matched := false
		for i, w := range ws {
			if w != "" && strings.Contains(d.Message, w) {
				ws[i] = ""
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s:%d: unexpected diagnostic: %s", d.Position.Filename, d.Position.Line, d.Message)
		}
	}
	for name, byLine := range wants {
		for line, ws := range byLine {
			for _, w := range ws {
				if w != "" {
					t.Errorf("%s:%d: no diagnostic matched want %q", name, line, w)
				}
			}
		}
	}
}

// fixtureWants maps line numbers to the expected message substrings.
func fixtureWants(t *testing.T, f *ast.File) map[int][]string {
	t.Helper()
	wants := map[int][]string{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			m := wantRE.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			line := fixtureFset.Position(c.Pos()).Line
			for _, s := range wantStrRE.FindAllStringSubmatch(m[1], -1) {
				wants[line] = append(wants[line], s[1])
			}
		}
	}
	return wants
}

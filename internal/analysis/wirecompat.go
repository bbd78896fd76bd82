package analysis

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// WireCompat turns the runtime version tripwire into a compile-time
// one. Every type whose shape crosses a durability or wire boundary —
// the store's solutionRecord, the fabric envelopes, the sweep-job
// record and everything those reach through their fields, such as
// core.Projection — is fingerprinted (field names, rendered types,
// json tags, declaration order) and compared against a pinned golden
// file, internal/analysis/wiredigest.json. Any drift is a finding:
//
//   - if core.ModelVersion still equals the recorded one, the finding
//     says to bump it only if bytes written before the change now
//     decode to different values (the parent-fixture tests show
//     whether they do), and otherwise to run `cactid-lint -fix-digests`;
//   - if ModelVersion was bumped but the golden file was not
//     regenerated, the finding demands `cactid-lint -fix-digests`.
//
// Boundary types are discovered two ways: a built-in registry of the
// repo's known crossing points (matched by package name + type name,
// so fixtures exercise the same code), plus any struct type annotated
// with a `//wire:boundary` comment on or above its declaration. The
// transitive closure over struct fields then pulls in every type a
// boundary struct embeds or references, wherever it is declared.
var WireCompat = &Analyzer{
	Name:       "wirecompat",
	Doc:        "pins the shape of every durability/wire-crossing type to a golden digest file; shape drift without a deliberate regeneration is a finding",
	RunProgram: runWireCompat,
}

// wireBoundaryMarker annotates additional boundary types in source.
const wireBoundaryMarker = "//wire:boundary"

// wireRegistry names the repo's known boundary types by (package
// name, type name).
var wireRegistry = map[string][]string{
	"store":  {"solutionRecord"},
	"fabric": {"WireResult", "BatchRequest", "BatchResponse"},
}

// WireDigestDefault is the golden file's path relative to the module
// root.
const WireDigestDefault = "internal/analysis/wiredigest.json"

// wireDigestFile is the golden file schema. Fields are stored in
// declaration order, one human-readable line per field, so `git diff`
// on the file IS the shape diff; the short digest in finding messages
// is derived, never stored (nothing to fall out of sync).
type wireDigestFile struct {
	// Comment documents the regeneration workflow inside the artifact.
	Comment string `json:"_comment,omitempty"`
	// ModelVersion is core.ModelVersion at regeneration time.
	ModelVersion int `json:"model_version"`
	// Types maps "importPath.TypeName" to its recorded field lines.
	Types map[string][]string `json:"types"`
}

// wireType is one fingerprinted boundary type.
type wireType struct {
	key    string // importPath.TypeName
	pos    token.Pos
	fields []string
	pkg    *Package
}

func runWireCompat(pass *ProgramPass) error {
	prog := pass.Prog
	current, modelVersion := collectWireTypes(prog)

	path := prog.WireDigestFile
	if path == "" {
		path = filepath.Join(prog.Dir, filepath.FromSlash(WireDigestDefault))
	}
	golden, err := readWireDigests(path)
	if err != nil {
		if len(current) == 0 {
			return nil // nothing to pin in this load (pattern subset)
		}
		pos := current[0].pos
		pass.Report(pos, "golden digest file %s unreadable (%v); run `cactid-lint -fix-digests` to create it", path, err)
		return nil
	}

	versionBumped := golden.ModelVersion != modelVersion
	for _, wt := range current {
		want, ok := golden.Types[wt.key]
		if !ok {
			pass.Report(wt.pos, "wire/store type %s is not pinned in %s; run `cactid-lint -fix-digests` after reviewing the wire surface", wt.key, filepath.Base(path))
			continue
		}
		if !equalFields(want, wt.fields) {
			if versionBumped {
				pass.Report(wt.pos, "wire/store type %s changed shape (digest %s, pinned %s); the golden file is stale — run `cactid-lint -fix-digests`",
					wt.key, shortDigest(wt.fields), shortDigest(want))
			} else {
				pass.Report(wt.pos, "wire/store type %s changed shape (digest %s, pinned %s) without a core.ModelVersion bump; if bytes written before the change now decode to different values, persisted records and fabric peers will skew silently — bump ModelVersion; if the parent-fixture tests show they decode the same, run `cactid-lint -fix-digests`",
					wt.key, shortDigest(wt.fields), shortDigest(want))
			}
		}
	}

	// A pinned type that vanished (or lost its marker) from a package
	// we actually analyzed is drift too: deleting the annotation must
	// not silently unpin the type.
	seen := map[string]bool{}
	for _, wt := range current {
		seen[wt.key] = true
	}
	keys := make([]string, 0, len(golden.Types))
	for k := range golden.Types {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if seen[k] {
			continue
		}
		dot := strings.LastIndex(k, ".")
		if dot < 0 {
			continue
		}
		pkg := prog.Package(k[:dot])
		if pkg == nil {
			continue // that package was not in this load's patterns
		}
		pos := token.NoPos
		if len(pkg.Files) > 0 {
			pos = pkg.Files[0].Pos()
		}
		pass.Report(pos, "pinned wire/store type %s no longer exists (or lost its //wire:boundary marker); run `cactid-lint -fix-digests` if the removal is deliberate", k)
	}

	if golden.ModelVersion != modelVersion && len(current) > 0 {
		allMatch := true
		for _, wt := range current {
			if want, ok := golden.Types[wt.key]; !ok || !equalFields(want, wt.fields) {
				allMatch = false
				break
			}
		}
		if allMatch {
			pass.Report(current[0].pos, "golden digest file records model_version %d but core.ModelVersion is %d; run `cactid-lint -fix-digests` to refresh the pin", golden.ModelVersion, modelVersion)
		}
	}
	return nil
}

// collectWireTypes discovers the boundary types of prog (registry +
// //wire:boundary markers, transitively closed over struct fields)
// and returns them fingerprinted in stable key order, together with
// the program's core.ModelVersion (0 when absent).
func collectWireTypes(prog *Program) ([]wireType, int) {
	type namedDecl struct {
		pkg  *Package
		spec *ast.TypeSpec
		obj  *types.TypeName
	}
	decls := map[string]namedDecl{} // importPath.TypeName -> decl

	// Index every named type declaration in the program and collect
	// seeds from the registry and the marker comments.
	var seeds []string
	for _, pkg := range prog.Pkgs {
		if pkg.Types == nil {
			continue
		}
		registry := wireRegistry[pkg.Types.Name()]
		for _, file := range pkg.Files {
			markers := markerLines(pkg.Fset, file)
			for _, d := range file.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, s := range gd.Specs {
					ts, ok := s.(*ast.TypeSpec)
					if !ok {
						continue
					}
					obj, _ := pkg.Info.Defs[ts.Name].(*types.TypeName)
					if obj == nil {
						continue
					}
					key := pkg.ImportPath + "." + ts.Name.Name
					decls[key] = namedDecl{pkg: pkg, spec: ts, obj: obj}
					for _, want := range registry {
						if ts.Name.Name == want {
							seeds = append(seeds, key)
						}
					}
					line := pkg.Fset.Position(ts.Pos()).Line
					declLine := pkg.Fset.Position(gd.Pos()).Line
					if markers[line-1] || markers[line] || markers[declLine-1] {
						seeds = append(seeds, key)
					}
				}
			}
		}
	}

	// Transitive closure over struct fields: a field whose (possibly
	// pointer/slice/array/map-wrapped) type is a named struct declared
	// in the program joins the boundary set.
	include := map[string]bool{}
	queue := append([]string(nil), seeds...)
	for len(queue) > 0 {
		key := queue[0]
		queue = queue[1:]
		if include[key] {
			continue
		}
		d, ok := decls[key]
		if !ok {
			continue
		}
		include[key] = true
		st, ok := d.obj.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			for _, ref := range namedStructRefs(st.Field(i).Type()) {
				queue = append(queue, ref)
			}
		}
	}

	keys := make([]string, 0, len(include))
	for k := range include {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]wireType, 0, len(keys))
	for _, k := range keys {
		d := decls[k]
		out = append(out, wireType{
			key:    k,
			pos:    d.spec.Pos(),
			fields: fingerprintType(d.obj),
			pkg:    d.pkg,
		})
	}
	return out, programModelVersion(prog)
}

// markerLines returns the set of line numbers carrying a
// //wire:boundary marker in file.
func markerLines(fset *token.FileSet, file *ast.File) map[int]bool {
	out := map[int]bool{}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if strings.HasPrefix(c.Text, wireBoundaryMarker) {
				out[fset.Position(c.Pos()).Line] = true
			}
		}
	}
	return out
}

// namedStructRefs unwraps composite types down to named types
// declared anywhere, returning their "importPath.TypeName" keys.
// Only keys present in the program's decl index survive the closure.
func namedStructRefs(t types.Type) []string {
	switch u := t.(type) {
	case *types.Pointer:
		return namedStructRefs(u.Elem())
	case *types.Slice:
		return namedStructRefs(u.Elem())
	case *types.Array:
		return namedStructRefs(u.Elem())
	case *types.Map:
		return append(namedStructRefs(u.Key()), namedStructRefs(u.Elem())...)
	case *types.Named:
		obj := u.Obj()
		if obj.Pkg() == nil {
			return nil
		}
		return []string{obj.Pkg().Path() + "." + obj.Name()}
	}
	return nil
}

// fingerprintType renders one line per field: name, fully-qualified
// type, and the raw struct tag. Non-struct named types (a wire enum,
// say) fingerprint as their underlying type's rendering.
func fingerprintType(obj *types.TypeName) []string {
	st, ok := obj.Type().Underlying().(*types.Struct)
	if !ok {
		return []string{"= " + types.TypeString(obj.Type().Underlying(), qualifyFull)}
	}
	out := make([]string, 0, st.NumFields())
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		line := f.Name() + " " + types.TypeString(f.Type(), qualifyFull)
		if tag := st.Tag(i); tag != "" {
			line += " `" + tag + "`"
		}
		out = append(out, line)
	}
	return out
}

func qualifyFull(p *types.Package) string { return p.Path() }

// programModelVersion reads the core.ModelVersion constant from the
// program's package named "core"; 0 when absent (fixtures).
func programModelVersion(prog *Program) int {
	pkg := prog.PackageNamed("core")
	if pkg == nil {
		return 0
	}
	obj := pkg.Types.Scope().Lookup("ModelVersion")
	c, ok := obj.(*types.Const)
	if !ok {
		return 0
	}
	v, ok := constant.Int64Val(c.Val())
	if !ok {
		return 0
	}
	return int(v)
}

func equalFields(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// shortDigest is the compact fingerprint used in messages: the first
// 12 hex digits of the sha256 over the field lines.
func shortDigest(fields []string) string {
	h := sha256.Sum256([]byte(strings.Join(fields, "\n")))
	return fmt.Sprintf("%x", h[:6])
}

func readWireDigests(path string) (*wireDigestFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f wireDigestFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if f.Types == nil {
		f.Types = map[string][]string{}
	}
	return &f, nil
}

// WriteWireDigests regenerates the golden digest file from prog —
// the implementation of `cactid-lint -fix-digests`. It returns the
// path written.
func WriteWireDigests(prog *Program) (string, error) {
	current, modelVersion := collectWireTypes(prog)
	f := wireDigestFile{
		Comment:      "Pinned shapes of the types that cross a durability or wire boundary: the store record, the fabric envelopes, the sweep-job checkpoint, explore.Stats and what they reach (see DESIGN.md §1.3). Regenerate deliberately with `cactid-lint -fix-digests` — in a separate commit from any core.ModelVersion bump, which is needed only when bytes written before the change would decode to different values.",
		ModelVersion: modelVersion,
		Types:        make(map[string][]string, len(current)),
	}
	for _, wt := range current {
		f.Types[wt.key] = wt.fields
	}
	path := prog.WireDigestFile
	if path == "" {
		path = filepath.Join(prog.Dir, filepath.FromSlash(WireDigestDefault))
	}
	data, err := json.MarshalIndent(&f, "", "  ")
	if err != nil {
		return path, err
	}
	data = append(data, '\n')
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return path, err
	}
	return path, os.WriteFile(path, data, 0o644)
}

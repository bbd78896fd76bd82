// Package analysis is a small, dependency-free analogue of
// golang.org/x/tools/go/analysis: it defines the Analyzer/Pass/
// Diagnostic vocabulary and a package loader built on `go list -export`
// plus the standard library's gc export-data importer.
//
// The suite enforces the invariants the model's byte-identical
// results depend on that neither `go vet` nor `go test -race`
// catches:
//
//   - floatdet: no nondeterminism on float result paths (map-order
//     accumulation, math.FMA, exact equality of computed floats);
//   - ctxflow:  context.Context parameters are propagated, not
//     shadowed by new root contexts, and worker loops observe
//     cancellation;
//   - lockguard: struct fields annotated `// guarded by <mu>` are
//     only touched with that mutex held;
//   - detpure: no wall-clock, randomness, map-order or
//     goroutine-order output anywhere the call graph reaches from the
//     solver entry points whose outputs are pinned.
//
// The suite keeps no exceptions: no comment hides a finding.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one static check. Exactly one of Run (package-level)
// and RunProgram (interprocedural/whole-program) is set.
type Analyzer struct {
	// Name identifies the analyzer in its findings.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run reports diagnostics for one package through pass.Report.
	Run func(pass *Pass) error
	// RunProgram reports diagnostics over the whole program (all
	// loaded packages, shared FileSet, call graph) through
	// pass.Report. Program-level analyzers see every package at once:
	// detpure walks call-graph reachability across package
	// boundaries.
	RunProgram func(pass *ProgramPass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// Report records a diagnostic.
func (p *Pass) Report(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      pos,
		Position: p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// ProgramPass carries one program-level analyzer's view of the whole
// loaded program.
type ProgramPass struct {
	Analyzer *Analyzer
	Prog     *Program

	diags *[]Diagnostic
}

// Report records a diagnostic.
func (p *ProgramPass) Report(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      pos,
		Position: p.Prog.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Pos
	Position token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Position, d.Analyzer, d.Message)
}

// RunProgram applies the full analyzer set — package-level analyzers
// per package, program-level analyzers once over the whole program —
// and returns every diagnostic sorted by position. There is no
// exception path: a finding is fixed in the code, or in the analyzer
// when the analyzer is wrong.
func RunProgram(prog *Program, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		switch {
		case a.RunProgram != nil:
			pass := &ProgramPass{Analyzer: a, Prog: prog, diags: &diags}
			if err := a.RunProgram(pass); err != nil {
				return nil, fmt.Errorf("%s: %w", a.Name, err)
			}
		case a.Run != nil:
			for _, pkg := range prog.Pkgs {
				pass := &Pass{
					Analyzer:  a,
					Fset:      pkg.Fset,
					Files:     pkg.Files,
					Pkg:       pkg.Types,
					TypesInfo: pkg.Info,
					diags:     &diags,
				}
				if err := a.Run(pass); err != nil {
					return nil, fmt.Errorf("%s: %s: %w", pkg.ImportPath, a.Name, err)
				}
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].Pos != diags[j].Pos {
			return diags[i].Pos < diags[j].Pos
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}

// All returns the full analyzer suite in stable order: the
// per-function checks first, then the program-level ones.
func All() []*Analyzer {
	return []*Analyzer{FloatDet, CtxFlow, LockGuard, DetPure}
}

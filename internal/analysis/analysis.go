// Package analysis is a small, dependency-free analogue of
// golang.org/x/tools/go/analysis: it defines the Analyzer/Pass/
// Diagnostic vocabulary, a package loader built on `go list -export`
// plus the standard library's gc export-data importer, and the
// suppression convention used across the repository.
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
// Deliberate exceptions are written as
//
//	//lint:ignore <analyzer> <reason>
//
// on the offending line or the line directly above it. The reason is
// mandatory; a bare suppression is itself reported.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one static check. Exactly one of Run (package-level)
// and RunProgram (interprocedural/whole-program) is set.
type Analyzer struct {
	// Name is the identifier used on the command line and in
	// //lint:ignore suppressions.
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

// ignorePrefix introduces a suppression comment.
const ignorePrefix = "//lint:ignore"

// suppression is one parsed //lint:ignore comment.
type suppression struct {
	analyzer string
	reason   string
	file     string
	line     int
	pos      token.Pos
	used     bool
}

// RunProgram applies the full analyzer set — package-level analyzers
// per package, program-level analyzers once over the whole program —
// and returns the surviving diagnostics sorted by position:
// suppressed findings are dropped, malformed or unused suppressions
// are reported as findings of the pseudo-analyzer "lint".
// Suppressions are collected program-wide, so a //lint:ignore next to
// a finding works identically for both analyzer kinds, and unused
// suppressions are judged against every analyzer that actually ran.
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
	var sups []*suppression
	var bad []Diagnostic
	for _, pkg := range prog.Pkgs {
		s, b := collectSuppressions(pkg.Fset, pkg.Files)
		sups = append(sups, s...)
		bad = append(bad, b...)
	}
	return finish(prog.Fset, diags, sups, bad, analyzers), nil
}

// finish applies suppressions to diags, reports malformed and unused
// ones, and sorts. A suppression counts as unused only when its
// analyzer actually ran (or is "all"): running a subset with
// cactid-lint -run must not flag the other analyzers' legitimate
// suppressions.
func finish(fset *token.FileSet, diags []Diagnostic, sups []*suppression, bad []Diagnostic, analyzers []*Analyzer) []Diagnostic {
	ran := map[string]bool{}
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	kept := diags[:0]
	for _, d := range diags {
		if !suppress(sups, d) {
			kept = append(kept, d)
		}
	}
	diags = kept
	diags = append(diags, bad...)
	for _, s := range sups {
		if !s.used && (ran[s.analyzer] || s.analyzer == "all") {
			diags = append(diags, Diagnostic{
				Analyzer: "lint",
				Pos:      s.pos,
				Position: fset.Position(s.pos),
				Message:  fmt.Sprintf("//lint:ignore %s suppresses nothing on this or the next line", s.analyzer),
			})
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].Pos != diags[j].Pos {
			return diags[i].Pos < diags[j].Pos
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags
}

// collectSuppressions parses every //lint:ignore comment, returning
// the well-formed suppressions and a diagnostic per malformed one.
func collectSuppressions(fset *token.FileSet, files []*ast.File) ([]*suppression, []Diagnostic) {
	var sups []*suppression
	var bad []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(c.Text, ignorePrefix))
				name, reason, _ := strings.Cut(rest, " ")
				reason = strings.TrimSpace(reason)
				if name == "" || reason == "" {
					bad = append(bad, Diagnostic{
						Analyzer: "lint",
						Pos:      c.Pos(),
						Position: fset.Position(c.Pos()),
						Message:  "malformed suppression: want //lint:ignore <analyzer> <reason>",
					})
					continue
				}
				p := fset.Position(c.Pos())
				sups = append(sups, &suppression{
					analyzer: name,
					reason:   reason,
					file:     p.Filename,
					line:     p.Line,
					pos:      c.Pos(),
				})
			}
		}
	}
	return sups, bad
}

// suppress reports whether d is covered by a suppression: same
// analyzer (or "all"), same file, and the diagnostic sits on the
// suppression's line or the one after it.
func suppress(sups []*suppression, d Diagnostic) bool {
	for _, s := range sups {
		if s.analyzer != d.Analyzer && s.analyzer != "all" {
			continue
		}
		if s.file != d.Position.Filename {
			continue
		}
		if d.Position.Line == s.line || d.Position.Line == s.line+1 {
			s.used = true
			return true
		}
	}
	return false
}

// All returns the full analyzer suite in stable order: the
// per-function checks first, then the program-level ones.
func All() []*Analyzer {
	return []*Analyzer{FloatDet, CtxFlow, LockGuard, DetPure}
}

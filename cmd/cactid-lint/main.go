// Command cactid-lint runs the repository's custom static-analysis
// suite (internal/analysis): the invariants the model's byte-identical
// results rest on that neither `go vet` nor `go test -race` catches.
// The per-function analyzers — floatdet, ctxflow, lockguard — enforce
// deterministic float paths, propagated cancellation and annotated
// lock discipline. The program-level analyzers — detpure, wirecompat —
// keep a call-graph-bounded determinism cone under the solver entry
// points and pin the wire and store type shapes to a golden digest.
//
// Usage:
//
//	cactid-lint [-run name[,name...]] [-json] [-list] [packages ...]
//	cactid-lint -fix-digests [packages ...]
//
// Packages default to ./... relative to the current directory. The
// exit status is 0 when clean, 1 when any diagnostic is reported, and
// 2 on a loading or internal error. Deliberate exceptions are
// suppressed in source with:
//
//	//lint:ignore <analyzer> <reason>
//
// on the offending line or the line directly above it; the reason is
// mandatory and an unused suppression is itself a finding.
//
// -fix-digests regenerates the wirecompat golden digest file
// (internal/analysis/wiredigest.json) from the current tree. The
// regeneration is refused while internal/core/version.go has
// uncommitted changes: a ModelVersion bump and a digest refresh must
// land as separate, deliberate steps, so neither can smuggle the
// other in.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"

	"cactid/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("cactid-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	runNames := fs.String("run", "", "comma-separated analyzer names to run (default: all)")
	asJSON := fs.Bool("json", false, "emit diagnostics as JSON")
	list := fs.Bool("list", false, "list analyzers and exit")
	fixDigests := fs.Bool("fix-digests", false, "regenerate the wirecompat golden digest file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := analysis.All()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-10s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *runNames != "" {
		analyzers = selectAnalyzers(analyzers, *runNames)
		if len(analyzers) == 0 {
			fmt.Fprintf(stderr, "cactid-lint: no analyzers match -run=%s\n", *runNames)
			return 2
		}
	}

	patterns := fs.Args()
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "cactid-lint: %v\n", err)
		return 2
	}
	prog, err := analysis.LoadProgram(cwd, patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "cactid-lint: %v\n", err)
		return 2
	}

	if *fixDigests {
		return runFixDigests(prog, stdout, stderr)
	}

	diags, err := analysis.RunProgram(prog, analyzers)
	if err != nil {
		fmt.Fprintf(stderr, "cactid-lint: %v\n", err)
		return 2
	}

	if *asJSON {
		type jsonDiag struct {
			File     string `json:"file"`
			Line     int    `json:"line"`
			Column   int    `json:"column"`
			Analyzer string `json:"analyzer"`
			Message  string `json:"message"`
		}
		out := make([]jsonDiag, len(diags))
		for i, d := range diags {
			out[i] = jsonDiag{
				File: d.Position.Filename, Line: d.Position.Line, Column: d.Position.Column,
				Analyzer: d.Analyzer, Message: d.Message,
			}
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		enc.Encode(out)
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "cactid-lint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// runFixDigests regenerates the golden digest file — unless the
// working tree also touches internal/core/version.go, in which case
// the refusal keeps ModelVersion bumps and digest refreshes as
// separate, reviewable steps.
func runFixDigests(prog *analysis.Program, stdout, stderr *os.File) int {
	if dirty, err := versionFileDirty(prog.Dir); err != nil {
		fmt.Fprintf(stderr, "cactid-lint: -fix-digests: cannot check working tree (%v); refusing to regenerate blind\n", err)
		return 2
	} else if dirty {
		fmt.Fprintf(stderr, "cactid-lint: -fix-digests refused: internal/core/version.go has uncommitted changes.\n"+
			"Commit the ModelVersion bump first, then regenerate the digests in their own commit —\n"+
			"the two must stay separately reviewable.\n")
		return 2
	}
	path, err := analysis.WriteWireDigests(prog)
	if err != nil {
		fmt.Fprintf(stderr, "cactid-lint: -fix-digests: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "cactid-lint: wrote %s\n", path)
	return 0
}

// versionFileDirty reports whether internal/core/version.go has
// uncommitted (staged or unstaged) changes. Outside a git checkout
// there is nothing to police; the regeneration proceeds.
func versionFileDirty(moduleDir string) (bool, error) {
	cmd := exec.Command("git", "status", "--porcelain", "--", "internal/core/version.go")
	cmd.Dir = moduleDir
	out, err := cmd.Output()
	if err != nil {
		if _, ok := err.(*exec.ExitError); ok {
			return false, nil // not a git checkout: nothing to police
		}
		return false, err
	}
	return len(strings.TrimSpace(string(out))) > 0, nil
}

func selectAnalyzers(all []*analysis.Analyzer, names string) []*analysis.Analyzer {
	want := map[string]bool{}
	for _, n := range strings.Split(names, ",") {
		want[strings.TrimSpace(n)] = true
	}
	var out []*analysis.Analyzer
	for _, a := range all {
		if want[a.Name] {
			out = append(out, a)
		}
	}
	return out
}

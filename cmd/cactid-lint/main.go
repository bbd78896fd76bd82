// Command cactid-lint runs the repository's custom static-analysis
// suite (internal/analysis): the invariants the model's byte-identical
// results rest on that neither `go vet` nor `go test -race` catches.
// The per-function analyzers — floatdet, ctxflow, lockguard — enforce
// deterministic float paths, propagated cancellation and annotated
// lock discipline. The program-level analyzer detpure keeps a
// call-graph-bounded determinism cone under the solver entry points.
//
// Usage:
//
//	cactid-lint [-json] [packages ...]
//
// Packages default to ./... relative to the current directory. Every
// analyzer runs. The exit status is 0 when clean, 1 when any
// diagnostic is reported, and 2 on a loading or internal error.
//
// There are no exceptions: no comment suppresses a finding. A finding
// is fixed in the code, or in the analyzer when the analyzer is wrong.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"cactid/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("cactid-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	asJSON := fs.Bool("json", false, "emit diagnostics as JSON")
	if err := fs.Parse(args); err != nil {
		return 2
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

	diags, err := analysis.RunProgram(prog, analysis.All())
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

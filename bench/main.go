// Command bench is cactid's performance ledger. It starts real
// cactid-serve processes on loopback ports, drives one of four seeded
// workloads from a closed loop of two clients with real solves, checks
// the answers against an in-process reference, and prints every
// metric with its unit. After the timed phase it replays the workload
// in-process with spans at each layer's public boundary, which gives
// the per-layer times; -trace 0 skips that replay to save time.
// BENCHMARK.json at the repository root lists the workloads and the
// metrics the ledger records, with their bounds.
//
// Run it from the repository root through run.sh, which builds
// cactid-serve and this harness first:
//
//	bash bench/run.sh -seed 1                          # all four workloads, traced
//	bash bench/run.sh -workload dse-cold -seed 3 -seconds 10 -trace 0
//	bash bench/run.sh -compare A/runs.jsonl B/runs.jsonl
//
// The last line of standard output is a JSON object with the run's
// correctness, request counts and the ledger's end-to-end and
// per-layer metrics; with -trace 0 it lacks those only the replay
// measures.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (default: all four in turn)")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "run length: each workload sends the request count this many seconds take at the seed commit")
	trace := fs.Int("trace", 1, "0: skip the traced in-process replay and the metrics only it measures")
	serve := fs.String("serve", ".bench_build/cactid-serve", "cactid-serve binary")
	work := fs.String("work", ".bench_build/work", "directory for temporary stores and server logs")
	out := fs.String("out", ".bench_build/out", "directory for <workload>.trace.json and runs.jsonl")
	ledgerPath := fs.String("ledger", "BENCHMARK.json", "the ledger: metric lists and regression bounds")
	compare := fs.Bool("compare", false, "compare two runs.jsonl files given as arguments: -compare A B")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	l, err := readLedger(*ledgerPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two runs.jsonl files")
			return 2
		}
		return compareFiles(l, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	ws := workloads()
	if *name != "" {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		ws = []*workload{w}
	}
	if _, err := os.Stat(*serve); err != nil {
		fmt.Fprintln(stderr, "bench: no cactid-serve binary (build it with bench/run.sh):", err)
		return 2
	}
	o := options{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace != 0,
		serve: *serve, work: *work, out: *out, minTail: tailSamples}
	for _, d := range []string{o.work, o.out} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	for _, w := range ws {
		res, err := runWorkload(ctx, o, w)
		if err != nil {
			if errors.Is(err, context.Canceled) {
				fmt.Fprintln(stderr, "bench: interrupted")
				return 130
			}
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		if err := emit(stdout, l, res); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		if err := appendRun(filepath.Join(o.out, "runs.jsonl"), res); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	return 0
}

// ledgerMetric is one metric entry of BENCHMARK.json.
type ledgerMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// ledger is the part of BENCHMARK.json the harness reads.
type ledger struct {
	EndToEnd []ledgerMetric `json:"end_to_end"`
	PerLayer []ledgerMetric `json:"per_layer"`
}

func readLedger(path string) (*ledger, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l ledger
	if err := json.Unmarshal(b, &l); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for _, m := range append(append([]ledgerMetric(nil), l.EndToEnd...), l.PerLayer...) {
		if unitOf(m.Name) != m.Unit {
			return nil, fmt.Errorf("%s: metric %q with unit %q is not one this harness reports", path, m.Name, m.Unit)
		}
	}
	return &l, nil
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints the human report and then the result line, which holds
// every ledger metric the run measured: all of them when traced, and
// all but those that only the replay measures otherwise.
func emit(w io.Writer, l *ledger, res *result) error {
	fmt.Fprintf(w, "workload %s  seed %d  attempted %d in %.1fs  failed %d  checked %d  correct %t\n",
		res.Workload, res.Seed, res.Attempted, res.TimedS, res.Failed, res.Checked, len(res.Problems) == 0)
	for _, p := range res.Problems {
		fmt.Fprintf(w, "  problem: %s\n", p)
	}
	for _, d := range metricDefs {
		v, ok := res.Values[d.name]
		switch {
		case !ok && !res.Trace && d.traced:
			fmt.Fprintf(w, "  %-34s %14s\n", d.name, "not traced")
		case !ok:
			fmt.Fprintf(w, "  %-34s %14s\n", d.name, "absent")
		default:
			n := ""
			if c, ok := res.Samples[d.name]; ok {
				n = fmt.Sprintf("n=%d", c)
			}
			fmt.Fprintf(w, "  %-34s %14.6g %-6s %s\n", d.name, v, d.unit, n)
		}
	}
	metrics := map[string]metricOut{}
	for _, m := range append(append([]ledgerMetric(nil), l.EndToEnd...), l.PerLayer...) {
		v, ok := res.Values[m.Name]
		switch {
		case !ok && !res.Trace && isTraced(m.Name):
		case !ok || math.IsNaN(v) || math.IsInf(v, 0):
			res.problem("ledger metric %s was not measured", m.Name)
		default:
			metrics[m.Name] = metricOut{v, m.Unit}
		}
	}
	res.Correct = len(res.Problems) == 0
	b, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{res.Correct, max(res.Attempted, 1), res.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// appendRun adds the run to runs.jsonl, the input of -compare.
func appendRun(path string, res *result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

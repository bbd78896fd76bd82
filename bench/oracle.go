package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"sync"
	"time"

	"cactid/internal/core"
	"cactid/internal/explore"
)

// solveLog times the reference solves: the core layer metrics.
type solveLog struct {
	mu    sync.Mutex
	us    []float64
	noSol int
}

// solve runs core.OptimizeContext with the engine's default options
// and logs it.
func (l *solveLog) solve(ctx context.Context, spec core.Spec) (*core.Solution, error) {
	t0 := time.Now()
	sol, err := core.OptimizeContext(ctx, spec, nil)
	d := time.Since(t0)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.us = append(l.us, float64(d)/float64(time.Microsecond))
	if errors.Is(err, core.ErrNoSolution) {
		l.noSol++
	}
	return sol, err
}

type outcome struct {
	sol *core.Solution
	err error
}

// oracle holds the in-process reference answers, one solve per
// distinct fingerprint.
type oracle struct {
	log  solveLog
	refs map[string]outcome
}

// decoded is a request body compiled the way cactid-serve compiles it.
type decoded struct {
	specs   []core.Spec
	skipped int
}

func decodeRequest(r request) (decoded, error) {
	switch r.kind {
	case kSolve:
		var sr explore.SpecRequest
		if err := json.Unmarshal(r.body, &sr); err != nil {
			return decoded{}, err
		}
		s, err := sr.Spec()
		return decoded{specs: []core.Spec{s}}, err
	case kBatch:
		var br batchRequest
		if err := json.Unmarshal(r.body, &br); err != nil {
			return decoded{}, err
		}
		d := decoded{specs: make([]core.Spec, len(br.Specs))}
		for i, sr := range br.Specs {
			s, err := sr.Spec()
			if err != nil {
				return decoded{}, err
			}
			d.specs[i] = s
		}
		return d, nil
	}
	var sr explore.SweepRequest
	if err := json.Unmarshal(r.body, &sr); err != nil {
		return decoded{}, err
	}
	g, err := sr.Grid()
	if err != nil {
		return decoded{}, err
	}
	specs, skipped := g.Expand()
	return decoded{specs: specs, skipped: skipped}, nil
}

// prepare solves every distinct spec of the kept bodies on `clients`
// goroutines.
func (o *oracle) prepare(ctx context.Context, reqs []request) error {
	o.refs = make(map[string]outcome)
	var todo []core.Spec
	for _, r := range reqs {
		d, err := decodeRequest(r)
		if err != nil {
			return fmt.Errorf("request %d: %w", r.idx, err)
		}
		for _, s := range d.specs {
			fp, err := s.Fingerprint()
			if err != nil {
				return fmt.Errorf("request %d: %w", r.idx, err)
			}
			if _, ok := o.refs[fp]; !ok {
				o.refs[fp] = outcome{}
				todo = append(todo, s)
			}
		}
	}
	results := make([]outcome, len(todo))
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(todo) && ctx.Err() == nil; i += clients {
				sol, err := o.log.solve(ctx, todo[i])
				results[i] = outcome{sol, err}
			}
		}(w)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	for i, s := range todo {
		fp, _ := s.Fingerprint()
		o.refs[fp] = results[i]
	}
	return nil
}

func (o *oracle) results(d decoded) []explore.Result {
	out := make([]explore.Result, len(d.specs))
	for i, s := range d.specs {
		fp, _ := s.Fingerprint()
		ref := o.refs[fp]
		out[i] = explore.Result{Index: i, Spec: s, Fingerprint: fp, Solution: ref.sol, Err: ref.err}
	}
	return out
}

// check compares one kept answer field by field with the reference:
// floats exactly, the per-call "cached" marker dropped.
func (o *oracle) check(r request, s sample) error {
	d, err := decodeRequest(r)
	if err != nil {
		return err
	}
	res := o.results(d)
	switch r.kind {
	case kSolve:
		ref := res[0]
		if ref.Err != nil {
			if !errors.Is(ref.Err, core.ErrNoSolution) || s.status != http.StatusUnprocessableEntity {
				return fmt.Errorf("status %d, reference error %v", s.status, ref.Err)
			}
			return sameJSON(s.body, map[string]string{"error": ref.Err.Error()})
		}
		if s.status != http.StatusOK {
			return fmt.Errorf("status %d, reference solved", s.status)
		}
		return sameJSON(s.body, explore.SolutionJSON(ref.Solution))
	case kJob:
		return checkStream(s.body, res, d.skipped)
	}
	if s.status != http.StatusOK {
		return fmt.Errorf("status %d", s.status)
	}
	if r.csv {
		var want bytes.Buffer
		if err := explore.WriteCSV(&want, res); err != nil {
			return err
		}
		return sameCSV(s.body, want.Bytes())
	}
	swept := len(res)
	if r.kind == kPareto {
		res = explore.Frontier(res)
	}
	return sameJSON(s.body, envelope(res, d.skipped, swept))
}

func envelope(res []explore.Result, skipped, swept int) map[string]any {
	arr := make([]map[string]any, len(res))
	for i, r := range res {
		arr[i] = explore.ResultJSON(r)
	}
	return map[string]any{"points": swept, "skipped": skipped, "results": arr}
}

// checkStream checks a job's NDJSON stream: one result line per point
// in grid order, then a terminal "done" line.
func checkStream(body []byte, res []explore.Result, skipped int) error {
	lines := bytes.Split(bytes.TrimRight(body, "\n"), []byte("\n"))
	if len(lines) != len(res)+1 {
		return fmt.Errorf("stream has %d lines, want %d results and a terminal line", len(lines), len(res))
	}
	for i, r := range res {
		if err := sameJSON(lines[i], explore.ResultJSON(r)); err != nil {
			return fmt.Errorf("stream line %d: %w", i, err)
		}
	}
	var done struct {
		State     string `json:"state"`
		Points    int    `json:"points"`
		Skipped   int    `json:"skipped"`
		Completed int    `json:"completed"`
	}
	if err := json.Unmarshal(lines[len(res)], &done); err != nil {
		return fmt.Errorf("terminal line: %w", err)
	}
	if done.State != "done" || done.Points != len(res) || done.Completed != len(res) || done.Skipped != skipped {
		return fmt.Errorf("terminal line %s", lines[len(res)])
	}
	return nil
}

// sameJSON compares an answer with a reference value after both pass
// through encoding/json, which round-trips float64 exactly.
func sameJSON(got []byte, want any) error {
	var g any
	if err := json.Unmarshal(got, &g); err != nil {
		return fmt.Errorf("answer is not JSON: %w", err)
	}
	wb, err := json.Marshal(want)
	if err != nil {
		return err
	}
	var w any
	if err := json.Unmarshal(wb, &w); err != nil {
		return err
	}
	dropCached(g)
	dropCached(w)
	if !reflect.DeepEqual(g, w) {
		return fmt.Errorf("answer differs from reference:\n got %.300s\nwant %.300s", got, wb)
	}
	return nil
}

// dropCached removes every "cached" key: whether a point came from a
// cache depends on traffic history, not on the answer.
func dropCached(v any) {
	switch v := v.(type) {
	case map[string]any:
		delete(v, "cached")
		for _, x := range v {
			dropCached(x)
		}
	case []any:
		for _, x := range v {
			dropCached(x)
		}
	}
}

func sameCSV(got, want []byte) error {
	g, err := csv.NewReader(bytes.NewReader(got)).ReadAll()
	if err != nil {
		return fmt.Errorf("answer is not CSV: %w", err)
	}
	w, err := csv.NewReader(bytes.NewReader(want)).ReadAll()
	if err != nil {
		return err
	}
	if len(g) != len(w) || len(w) == 0 {
		return fmt.Errorf("CSV has %d rows, want %d", len(g), len(w))
	}
	cached := -1
	for i, h := range w[0] {
		if h == "cached" {
			cached = i
		}
	}
	for i := range w {
		if len(g[i]) != len(w[i]) {
			return fmt.Errorf("CSV row %d has %d columns, want %d", i, len(g[i]), len(w[i]))
		}
		for j := range w[i] {
			if j != cached && g[i][j] != w[i][j] {
				return fmt.Errorf("CSV row %d column %s: got %q want %q", i, w[0][j], g[i][j], w[i][j])
			}
		}
	}
	return nil
}

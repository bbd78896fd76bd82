package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"cactid/internal/core"
	"cactid/internal/explore"
	"cactid/internal/fabric"
	"cactid/internal/store"
)

// timedTier times tier-1 reads and writes at the store.Tiered
// boundary.
type timedTier struct {
	inner store.Tiered
	rec   *recorder
}

func (t timedTier) Lookup(ctx context.Context, fp string) (store.Hit, bool) {
	ctx, end := t.rec.start(ctx, "store.Tiered.Lookup")
	h, ok := t.inner.Lookup(ctx, fp)
	end(hitNote(ok))
	return h, ok
}

func (t timedTier) Save(ctx context.Context, fp string, sol *core.Solution, err error) {
	ctx, end := t.rec.start(ctx, "store.Tiered.Save")
	t.inner.Save(ctx, fp, sol, err)
	end("")
}

func hitNote(hit bool) string {
	if hit {
		return "hit"
	}
	return ""
}

// timedWorker times each chunk dispatch at the fabric.Worker boundary.
type timedWorker struct {
	fabric.Worker
	rec *recorder
}

func (w timedWorker) SolveBatch(ctx context.Context, specs []core.Spec) ([]fabric.WireResult, error) {
	ctx, end := w.rec.start(ctx, "fabric.Worker.SolveBatch")
	res, err := w.Worker.SolveBatch(ctx, specs)
	end(fmt.Sprint(len(specs)))
	return res, err
}

// system is the in-process stand-in for the timed phase's servers:
// the same engine options, warm state and store image, with timing
// wrappers at each layer boundary when rec is set.
type system struct {
	rec     *recorder
	eng     *explore.Engine
	st      *store.Store
	coord   *fabric.Coordinator
	workers []*proc // cluster worker processes
}

// replayEnv is what a replay needs from the run that precedes it.
type replayEnv struct {
	w      *workload
	fleet  *fleet
	client *http.Client
	work   string
	crash  string    // store-churn's crashed store image
	warm   []request // the plan's working set, when there is no crash image
	slice  []request // the timed phase's untimed warm slice
}

// build starts an in-process system in the timed phase's starting
// state and answers the warm slice on it; n names its store copy.
func (env *replayEnv) build(ctx context.Context, rec *recorder, n int) (*system, error) {
	sys, err := env.start(ctx, rec, n)
	if err != nil {
		return nil, err
	}
	if err := sys.warmUp(ctx, env.slice); err != nil {
		sys.close(env.fleet)
		return nil, err
	}
	return sys, nil
}

func (env *replayEnv) start(ctx context.Context, rec *recorder, n int) (*system, error) {
	sys := &system{rec: rec}
	if env.w.cluster {
		var workers []fabric.Worker
		for i := 0; i < 2; i++ {
			p, _, err := env.fleet.startReady(ctx, env.client, 1, env.w.serverFlags()...)
			if err != nil {
				sys.close(env.fleet)
				return nil, err
			}
			sys.workers = append(sys.workers, p)
			var wk fabric.Worker = fabric.NewHTTPWorker(p.url)
			if rec != nil {
				wk = timedWorker{wk, rec}
			}
			workers = append(workers, wk)
		}
		sys.coord = fabric.New(fabric.Config{Workers: workers, Local: explore.New(explore.Options{}).Sweep})
		return sys, nil
	}
	opts := explore.Options{CacheEntries: env.w.cacheEntries}
	if rec != nil {
		opts.Solver = func(ctx context.Context, spec core.Spec) (*core.Solution, error) {
			ctx, end := rec.start(ctx, "core.OptimizeContext")
			var st core.SolveStats
			sol, err := core.OptimizeContext(ctx, spec, &core.Options{Stats: &st})
			end("")
			return sol, err
		}
	}
	if env.crash != "" {
		dir := filepath.Join(env.work, fmt.Sprintf("replay-store-%d", n))
		if err := copyDir(dir, env.crash); err != nil {
			return nil, err
		}
		_, end := rec.root(ctx, -1, "store.Open")
		st, err := store.Open(store.Config{Dir: dir})
		end("")
		if err != nil {
			return nil, err
		}
		sys.st = st
		var tier store.Tiered = store.NewSolutions(st)
		if rec != nil {
			tier = timedTier{tier, rec}
		}
		opts.Tier1 = tier
	}
	sys.eng = explore.New(opts)
	if env.crash != "" {
		return sys, nil // the store image is the warm state
	}
	for _, r := range env.warm {
		d, err := decodeRequest(r)
		if err != nil {
			return nil, err
		}
		sys.eng.Sweep(ctx, d.specs)
	}
	return sys, ctx.Err()
}

func (sys *system) close(f *fleet) {
	if sys.coord != nil {
		sys.coord.Close()
	}
	for _, p := range sys.workers {
		f.forget(p)
	}
	if sys.st != nil {
		sys.st.Close()
	}
}

// serve answers one request the way cactid-serve's handler does:
// decode, solve through the engine or the fabric, encode.
func (sys *system) serve(ctx context.Context, r request) error {
	rec := sys.rec
	ctx, endRoot := rec.root(ctx, r.idx, "request/"+r.kind.String())
	defer endRoot("")
	var out bytes.Buffer
	if r.kind == kSolve {
		var sr explore.SpecRequest
		if err := timedUnmarshal(ctx, rec, r.body, &sr); err != nil {
			return err
		}
		_, end := rec.start(ctx, "explore.SpecRequest.Spec")
		spec, err := sr.Spec()
		end("")
		if err != nil {
			return err
		}
		sol, err := sys.solveOne(ctx, spec)
		if err != nil {
			if !errors.Is(err, core.ErrNoSolution) {
				return err
			}
			_, end := rec.start(ctx, "json.Encode")
			json.NewEncoder(&out).Encode(map[string]string{"error": err.Error()})
			end("")
			return nil
		}
		_, end = rec.start(ctx, "explore.SolutionJSON")
		m := explore.SolutionJSON(sol)
		end("")
		_, end = rec.start(ctx, "json.Encode")
		b, err := json.MarshalIndent(m, "", "  ")
		out.Write(b)
		end("")
		return err
	}

	var specs []core.Spec
	skipped := 0
	if r.kind == kBatch {
		var br batchRequest
		if err := timedUnmarshal(ctx, rec, r.body, &br); err != nil {
			return err
		}
		_, end := rec.start(ctx, "explore.SpecRequest.Spec")
		for _, sr := range br.Specs {
			s, err := sr.Spec()
			if err != nil {
				end("")
				return err
			}
			specs = append(specs, s)
		}
		end("")
	} else {
		var sr explore.SweepRequest
		if err := timedUnmarshal(ctx, rec, r.body, &sr); err != nil {
			return err
		}
		_, end := rec.start(ctx, "explore.SweepRequest.Grid")
		g, err := sr.Grid()
		end("")
		if err != nil {
			return err
		}
		_, end = rec.start(ctx, "explore.Grid.Expand")
		specs, skipped = g.Expand()
		end("")
	}
	res := sys.sweep(ctx, specs)
	swept := len(res)
	if r.kind == kPareto {
		_, end := rec.start(ctx, "explore.Frontier")
		res = explore.Frontier(res)
		end("")
	}
	if r.csv {
		_, end := rec.start(ctx, "explore.WriteCSV")
		defer end("")
		return explore.WriteCSV(&out, res)
	}
	_, end := rec.start(ctx, "explore.ResultJSON")
	arr := make([]map[string]any, len(res))
	for i, x := range res {
		arr[i] = explore.ResultJSON(x)
	}
	end("")
	_, end = rec.start(ctx, "json.Encode")
	defer end("")
	if r.kind == kJob {
		for _, m := range arr {
			b, err := json.Marshal(m)
			if err != nil {
				return err
			}
			out.Write(append(b, '\n'))
		}
		return json.NewEncoder(&out).Encode(map[string]any{"state": "done", "points": swept, "skipped": skipped, "completed": swept})
	}
	enc := json.NewEncoder(&out)
	enc.SetIndent("", "  ")
	return enc.Encode(map[string]any{"points": swept, "skipped": skipped, "results": arr})
}

func timedUnmarshal(ctx context.Context, rec *recorder, body []byte, v any) error {
	_, end := rec.start(ctx, "json.Decode")
	defer end("")
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// solveOne is /v1/solve: the local engine, or in a cluster the
// fingerprint owner's batch endpoint, as the coordinator proxies it.
func (sys *system) solveOne(ctx context.Context, spec core.Spec) (*core.Solution, error) {
	rec := sys.rec
	if sys.coord == nil {
		ctx, end := rec.start(ctx, "explore.Engine.Solve")
		sol, cached, err := sys.eng.Solve(ctx, spec)
		end(hitNote(cached))
		return sol, err
	}
	_, end := rec.start(ctx, "core.Spec.Fingerprint")
	fp, err := spec.Fingerprint()
	end("")
	if err != nil {
		return nil, err
	}
	_, end = rec.start(ctx, "fabric.Coordinator.Owner")
	owner := sys.coord.Owner(fp)
	end("")
	if owner == nil {
		return nil, errors.New("no healthy worker")
	}
	wres, err := owner.SolveBatch(ctx, []core.Spec{spec})
	if err != nil || len(wres) != 1 {
		return nil, fmt.Errorf("dispatch to %s: %v", owner.Name(), err)
	}
	res := fabric.FromWire(wres[0])
	return res.Solution, res.Err
}

func (sys *system) sweep(ctx context.Context, specs []core.Spec) []explore.Result {
	if sys.coord != nil {
		ctx, end := sys.rec.start(ctx, "fabric.Coordinator.Sweep")
		defer end("")
		return sys.coord.Sweep(ctx, specs, nil)
	}
	ctx, end := sys.rec.start(ctx, "explore.Engine.Sweep")
	defer end("")
	return sys.eng.Sweep(ctx, specs)
}

// warmUp answers the timed phase's warm slice without spans, so the
// replayed requests meet the state the timed requests met.
func (sys *system) warmUp(ctx context.Context, slice []request) error {
	plain := *sys
	plain.rec = nil
	_, err := plain.replay(ctx, slice)
	return err
}

// replay answers reqs in order on `clients` goroutines, the timed
// phase's closed loop without HTTP, and returns the wall time.
func (sys *system) replay(ctx context.Context, reqs []request) (time.Duration, error) {
	var (
		mu   sync.Mutex
		next int
		errs []error
		wg   sync.WaitGroup
	)
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(reqs) {
					return
				}
				if err := sys.serve(ctx, reqs[i]); err != nil {
					mu.Lock()
					errs = append(errs, fmt.Errorf("replay request %d: %w", reqs[i].idx, err))
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return time.Since(t0), errors.Join(append(errs, ctx.Err())...)
}

package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Times are nanoseconds
// since the recorder started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for a request's root span
	Req    int    `json:"req"`    // index of the replayed request
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Note   string `json:"note,omitempty"`
}

// recorder keeps spans in memory until the replay ends. A nil
// recorder records nothing: the untraced replay.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

type spanKey struct{}

type spanCtx struct {
	id  int64
	req int
}

// root starts a request's root span.
func (r *recorder) root(ctx context.Context, req int, name string) (context.Context, func(note string)) {
	if r == nil {
		return ctx, func(string) {}
	}
	return r.open(context.WithValue(ctx, spanKey{}, spanCtx{req: req}), name)
}

// start opens a child of the span ctx carries; the returned function
// closes it. Outside a request (warm-up) it records nothing.
func (r *recorder) start(ctx context.Context, name string) (context.Context, func(note string)) {
	if _, ok := ctx.Value(spanKey{}).(spanCtx); r == nil || !ok {
		return ctx, func(string) {}
	}
	return r.open(ctx, name)
}

func (r *recorder) open(ctx context.Context, name string) (context.Context, func(string)) {
	parent, _ := ctx.Value(spanKey{}).(spanCtx)
	t0 := time.Since(r.epoch)
	r.mu.Lock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Parent: parent.id, Req: parent.req, Name: name, Start: int64(t0)})
	r.mu.Unlock()
	ctx = context.WithValue(ctx, spanKey{}, spanCtx{id: id, req: parent.req})
	return ctx, func(note string) {
		t1 := time.Since(r.epoch)
		r.mu.Lock()
		r.spans[id-1].End = int64(t1)
		r.spans[id-1].Note = note
		r.mu.Unlock()
	}
}

// layerOf maps a span name to the layer whose public boundary it
// times.
func layerOf(name string) string {
	switch {
	case name == "core.Spec.Fingerprint", strings.HasPrefix(name, "explore.Engine"), name == "explore.Frontier":
		return "explore"
	case strings.HasPrefix(name, "core."):
		return "core"
	case strings.HasPrefix(name, "store."):
		return "store"
	case strings.HasPrefix(name, "fabric."):
		return "fabric"
	}
	return "serve" // request roots, decoding and encoding
}

// decodeSpan and encodeSpan pick out the serve layer's two halves.
func decodeSpan(name string) bool {
	switch name {
	case "json.Decode", "explore.SpecRequest.Spec", "explore.SweepRequest.Grid", "explore.Grid.Expand":
		return true
	}
	return false
}

func encodeSpan(name string) bool {
	switch name {
	case "json.Encode", "explore.SolutionJSON", "explore.ResultJSON", "explore.WriteCSV":
		return true
	}
	return false
}

// selfTimes returns each span's duration minus the part of it that
// its children's intervals cover.
func selfTimes(spans []span) []int64 {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		clipped := make([]span, 0, len(kids[s.ID]))
		for _, c := range kids[s.ID] {
			c.Start, c.End = max(c.Start, s.Start), min(c.End, s.End)
			clipped = append(clipped, c)
		}
		out[i] = s.End - s.Start - union(clipped)
	}
	return out
}

// union returns the length of time the spans' intervals cover.
func union(spans []span) int64 {
	iv := append([]span(nil), spans...)
	sort.Slice(iv, func(a, b int) bool { return iv[a].Start < iv[b].Start })
	covered, lo, hi := int64(0), int64(0), int64(0)
	for _, s := range iv {
		if s.End <= s.Start {
			continue
		}
		if s.Start > hi {
			covered += hi - lo
			lo, hi = s.Start, s.End
		} else if s.End > hi {
			hi = s.End
		}
	}
	return covered + hi - lo
}

// traceFile is the per-workload trace written under -out.
type traceFile struct {
	Workload string           `json:"workload"`
	Seed     uint64           `json:"seed"`
	Requests int              `json:"requests"`
	SelfNS   map[string]int64 `json:"self_time_ns"` // per layer
	Spans    []span           `json:"spans"`
}

func writeTrace(path string, t traceFile) error {
	b, err := json.Marshal(t)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

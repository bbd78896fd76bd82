package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"testing"

	"cactid/internal/core"
	"cactid/internal/explore"
)

// referenceBody renders v as json.Encoder with a two-space indent
// does: the reference every indented result body must equal.
func referenceBody(t *testing.T, v any) []byte {
	t.Helper()
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func referenceResults(results []explore.Result) []map[string]any {
	arr := make([]map[string]any, len(results))
	for i, r := range results {
		arr[i] = explore.ResultJSON(r)
	}
	return arr
}

// referenceEnvelope is the /v1/sweep, /v1/pareto and /v1/solve-batch
// body built from the reference maps.
func referenceEnvelope(t *testing.T, results []explore.Result, skipped, points int) []byte {
	t.Helper()
	return referenceBody(t, map[string]any{
		"points": points, "skipped": skipped, "results": referenceResults(results),
	})
}

func expectBody(t *testing.T, what string, resp *http.Response, got, want []byte) {
	t.Helper()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d: %s", what, resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: body differs from the reference\n got %s\nwant %s", what, got, want)
	}
}

// TestResultBodiesByteIdentical pins every result body cactid-serve
// renders with the typed encoder to the reference built from
// explore.ResultJSON through encoding/json: the sweep, pareto and
// batch envelopes (an empty frontier included), CSV sweeps, the job
// NDJSON and SSE streams and the job poll.
func TestResultBodiesByteIdentical(t *testing.T) {
	ts := newTestServer(t, config{})
	const grid = `{"base":{"ram":"sram","node_nm":32,"block_bytes":64},
	               "capacities":["32KB","64KB"],"associativities":[1,4],"modes":["normal","seq"]}`
	var req explore.SweepRequest
	if err := json.Unmarshal([]byte(grid), &req); err != nil {
		t.Fatal(err)
	}
	g, err := req.Grid()
	if err != nil {
		t.Fatal(err)
	}
	specs, skipped := g.Expand()
	// A fresh engine answers exactly as the fresh server does: every
	// point solved once, none cached.
	cold := explore.New(explore.Options{}).Sweep(context.Background(), specs)
	warm := make([]explore.Result, len(cold))
	for i, r := range cold {
		r.Cached = true
		warm[i] = r
	}

	resp, body := post(t, ts.URL+"/v1/sweep", grid)
	expectBody(t, "cold /v1/sweep", resp, body, referenceEnvelope(t, cold, skipped, len(cold)))
	resp, body = post(t, ts.URL+"/v1/sweep", grid)
	expectBody(t, "warm /v1/sweep", resp, body, referenceEnvelope(t, warm, skipped, len(warm)))

	var csvWant bytes.Buffer
	if err := explore.WriteCSV(&csvWant, warm); err != nil {
		t.Fatal(err)
	}
	resp, body = post(t, ts.URL+"/v1/sweep?format=csv", grid)
	expectBody(t, "/v1/sweep?format=csv", resp, body, csvWant.Bytes())

	resp, body = post(t, ts.URL+"/v1/pareto", grid)
	expectBody(t, "/v1/pareto", resp, body,
		referenceEnvelope(t, explore.Frontier(warm), skipped, len(warm)))

	// Every point of this grid has no solution, so the frontier is
	// empty and renders as "results": [].
	const noSolution = `{"base":{"ram":"comm-dram","cache":false,"page_bits":7},"capacities":["1MB","2MB"]}`
	resp, body = post(t, ts.URL+"/v1/pareto", noSolution)
	expectBody(t, "empty /v1/pareto", resp, body, referenceEnvelope(t, []explore.Result{}, 0, 2))
	if !bytes.Contains(body, []byte(`"results": []`)) {
		t.Fatalf("empty frontier body lacks an empty results array: %s", body)
	}

	batch := `{"specs":[{"ram":"sram","capacity":"64KB","associativity":4,"block_bytes":64,"node_nm":32},
	                    {"ram":"comm-dram","capacity":"1MB","cache":false,"page_bits":7}]}`
	var breq batchRequest
	if err := json.Unmarshal([]byte(batch), &breq); err != nil {
		t.Fatal(err)
	}
	batchSpecs := make([]core.Spec, len(breq.Specs))
	for i, sr := range breq.Specs {
		if batchSpecs[i], err = sr.Spec(); err != nil {
			t.Fatal(err)
		}
	}
	batchWant := explore.New(explore.Options{}).Sweep(context.Background(), batchSpecs)
	for i := range batchWant {
		batchWant[i].Cached = true // both points were answered above
	}
	resp, body = post(t, ts.URL+"/v1/solve-batch", batch)
	expectBody(t, "/v1/solve-batch", resp, body, referenceEnvelope(t, batchWant, 0, 2))

	// A sweep job over the warm grid.
	resp, body = post(t, ts.URL+"/v1/sweep-jobs", grid)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job submit: %d %s", resp.StatusCode, body)
	}
	var sub struct{ ID string }
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	jobURL := ts.URL + "/v1/sweep-jobs/" + sub.ID
	pollJob(t, jobURL, func(m map[string]any) bool { return m["state"] == jobDone })
	doneLine, err := json.Marshal(map[string]any{
		"id": sub.ID, "state": jobDone, "points": len(warm), "skipped": skipped, "completed": len(warm),
	})
	if err != nil {
		t.Fatal(err)
	}

	var ndjson, sse bytes.Buffer
	for _, r := range warm {
		line, err := json.Marshal(explore.ResultJSON(r))
		if err != nil {
			t.Fatal(err)
		}
		ndjson.Write(line)
		ndjson.WriteByte('\n')
		sse.WriteString("event: result\ndata: ")
		sse.Write(line)
		sse.WriteString("\n\n")
	}
	ndjson.Write(doneLine)
	ndjson.WriteByte('\n')
	sse.WriteString("event: done\ndata: ")
	sse.Write(doneLine)
	sse.WriteString("\n\n")

	resp, body = get(t, jobURL+"/stream")
	expectBody(t, "job NDJSON stream", resp, body, ndjson.Bytes())

	sseReq, err := http.NewRequest("GET", jobURL+"/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	sseReq.Header.Set("Accept", "text/event-stream")
	sseResp, err := http.DefaultClient.Do(sseReq)
	if err != nil {
		t.Fatal(err)
	}
	defer sseResp.Body.Close()
	var sseBody bytes.Buffer
	if _, err := sseBody.ReadFrom(sseResp.Body); err != nil {
		t.Fatal(err)
	}
	expectBody(t, "job SSE stream", sseResp, sseBody.Bytes(), sse.Bytes())

	resp, body = get(t, jobURL)
	expectBody(t, "job poll", resp, body, referenceBody(t, map[string]any{
		"id": sub.ID, "state": jobDone, "points": len(warm), "skipped": skipped,
		"completed": len(warm), "results": referenceResults(warm),
	}))
}

package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// crossTechPareto sweeps one cache geometry across three technology
// providers — the request shape the technology axis exists for.
const crossTechPareto = `{"base":{"ram":"sram","node_nm":32,"block_bytes":64,"max_pipeline_stages":6},
	"techs":["itrs-sram","stt-ram","gain-cell"],
	"capacities":["64KB","128KB"],
	"associativities":[4]}`

// TestCrossTechParetoDistributedByteIdentical: /v1/pareto over a
// cross-technology grid must answer byte-identically whether the six
// points solve on one node or shard across a two-worker fabric, the
// second (CSV) request's cached flags included, and the frontier must
// retain more than one technology.
func TestCrossTechParetoDistributedByteIdentical(t *testing.T) {
	co, workers, _ := clusterServers(t, 2, nil)
	coURL := newHTTPServer(t, co).URL
	single := newTestServer(t, config{})

	for i, format := range []string{"", "?format=csv"} {
		resp, want := post(t, single.URL+"/v1/pareto"+format, crossTechPareto)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("single-node status %d: %s", resp.StatusCode, want)
		}
		resp, got := post(t, coURL+"/v1/pareto"+format, crossTechPareto)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("coordinator status %d: %s", resp.StatusCode, got)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("distributed /v1/pareto%s differs from single-node:\n%s\nvs\n%s", format, want, got)
		}
		// The first request solves every spec exactly once on the
		// workers, and the second finds each in its owner's cache.
		var clusterSolves int64
		for _, ws := range workers {
			clusterSolves += ws.eng.Stats().Solves
		}
		if clusterSolves != 6 {
			t.Fatalf("request %d: cluster solved %d points for 6 specs", i+1, clusterSolves)
		}
	}

	// All solving happened on the workers; the coordinator only merged.
	if co.eng.Stats().Solves != 0 {
		t.Fatalf("coordinator solved %d points locally", co.eng.Stats().Solves)
	}

	// The JSON frontier spans technologies.
	_, body := post(t, single.URL+"/v1/pareto", crossTechPareto)
	var env struct {
		Results []struct {
			Technology string `json:"technology"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, r := range env.Results {
		seen[r.Technology] = true
	}
	if len(seen) < 2 {
		t.Fatalf("frontier collapsed to one technology: %v", seen)
	}
}

// TestWarmRestartMixedTechnologyStore: a store populated by a
// cross-technology sweep must serve a restarted server — hard stop,
// no drain — byte-identically with zero re-solves, proving the
// technology axis is part of the durable record identity.
func TestWarmRestartMixedTechnologyStore(t *testing.T) {
	if testing.Short() {
		t.Skip("real solver")
	}
	dir := warmStoreDir(t)
	sweep := `{"base":{"ram":"sram","node_nm":32,"block_bytes":64,"max_pipeline_stages":6},
		"techs":["itrs-sram","stt-ram","gain-cell"],
		"capacities":["64KB"],"associativities":[1,4]}`

	sA, err := newServer(config{storeDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewServer(sA)
	post(t, tsA.URL+"/v1/sweep", sweep) // cold: populates the store
	_, warmBody := post(t, tsA.URL+"/v1/sweep", sweep)
	// The kill: the HTTP listener and the store drop with no graceful
	// job drain — everything the next process sees is what already
	// reached disk.
	tsA.Close()
	sA.close()

	sB := mustServer(t, config{storeDir: dir})
	tsB := httptest.NewServer(sB)
	defer tsB.Close()
	resp, restartBody := post(t, tsB.URL+"/v1/sweep", sweep)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restart sweep: %d", resp.StatusCode)
	}
	if !bytes.Equal(warmBody, restartBody) {
		t.Fatalf("mixed-tech restart sweep not byte-identical:\n%s\nvs\n%s", warmBody, restartBody)
	}
	if solves := sB.eng.Stats().Solves; solves != 0 {
		t.Fatalf("restarted server re-solved %d points, want 0", solves)
	}

	// Every technology's record really is keyed apart: each single
	// solve is a durable hit, including the NVM one with its write
	// metrics intact.
	resp, body := post(t, tsB.URL+"/v1/solve",
		`{"tech":"stt-ram","capacity":"64KB","associativity":4,"block_bytes":64,"node_nm":32,"max_pipeline_stages":6}`)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cactid-Cached") != "true" {
		t.Fatalf("stt-ram solve after restart: status %d cached=%q", resp.StatusCode, resp.Header.Get("X-Cactid-Cached"))
	}
	if !strings.Contains(string(body), "write_endurance_cycles") {
		t.Fatalf("rehydrated stt-ram solution lost its endurance: %s", body)
	}
	if solves := sB.eng.Stats().Solves; solves != 0 {
		t.Fatalf("solve after restart ran the solver %d times", solves)
	}
}

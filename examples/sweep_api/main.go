// Sweep via the HTTP API: run a capacity x technology sweep against a
// running cactid-serve and print the Pareto frontier. Start the
// server first:
//
//	go run ./cmd/cactid-serve &
//	go run ./examples/sweep_api
//	go run ./examples/sweep_api -addr http://localhost:8080 -local=false
//
// With -local (the default) the same sweep also runs in-process
// through internal/explore, demonstrating that the API and the
// library return identical design points.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"strconv"
	"time"

	"cactid/internal/explore"
)

// postWithRetry POSTs the body, retrying only genuinely retryable
// shed responses — 429 Too Many Requests and 503 Service Unavailable
// — with exponential backoff and jitter. A Retry-After header
// (seconds) overrides the computed backoff: the server knows its
// queue better than the client does.
//
// Every other non-2xx status (400 malformed grid, 413 oversized body,
// 422 infeasible spec, ...) is terminal: retrying cannot change the
// answer, so the server's error body is surfaced immediately instead
// of being burned through the retry budget.
func postWithRetry(client *http.Client, url string, body []byte, attempts int) (*http.Response, error) {
	backoff := 250 * time.Millisecond
	for attempt := 1; ; attempt++ {
		resp, err := client.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		switch {
		case resp.StatusCode < 300:
			return resp, nil
		case resp.StatusCode == http.StatusTooManyRequests ||
			resp.StatusCode == http.StatusServiceUnavailable:
			// Shed under load: fall through to the retry path below.
		default:
			var e map[string]string
			json.NewDecoder(resp.Body).Decode(&e)
			resp.Body.Close()
			return nil, fmt.Errorf("%s: %s", resp.Status, e["error"])
		}
		delay := backoff
		if sec, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && sec > 0 {
			delay = time.Duration(sec) * time.Second
		}
		resp.Body.Close()
		if attempt >= attempts {
			return nil, fmt.Errorf("server still shedding load (%s) after %d attempts", resp.Status, attempts)
		}
		// Full jitter: sleep U(0, delay] so retries from concurrent
		// clients spread out instead of re-colliding in lockstep.
		jittered := time.Duration(rand.Int63n(int64(delay))) + time.Millisecond
		log.Printf("server busy (%s), retry %d/%d in %v", resp.Status, attempt, attempts, jittered.Round(time.Millisecond))
		time.Sleep(jittered)
		backoff *= 2
	}
}

func main() {
	addr := flag.String("addr", "http://localhost:8080", "cactid-serve base URL")
	local := flag.Bool("local", true, "also run the sweep in-process and compare")
	flag.Parse()

	// An L3-sized sweep: three technologies, four capacities, two
	// associativities — 24 design points, one HTTP request.
	req := explore.SweepRequest{
		Base: explore.SpecRequest{
			NodeNM:            32,
			BlockBytes:        64,
			Mode:              "seq",
			MaxPipelineStages: 6,
		},
		RAMs:            []string{"sram", "lp-dram", "comm-dram"},
		Capacities:      []string{"8MB", "16MB", "32MB", "64MB"},
		Associativities: []int{8, 16},
	}
	body, err := json.Marshal(req)
	if err != nil {
		log.Fatal(err)
	}

	client := &http.Client{Timeout: 5 * time.Minute}
	resp, err := postWithRetry(client, *addr+"/v1/pareto", body, 5)
	if err != nil {
		log.Fatalf("POST /v1/pareto: %v (is cactid-serve running? go run ./cmd/cactid-serve)", err)
	}
	defer resp.Body.Close()
	var env struct {
		Points  int `json:"points"`
		Skipped int `json:"skipped"`
		Results []struct {
			RAM        string  `json:"ram"`
			Capacity   int64   `json:"capacity_bytes"`
			Assoc      int     `json:"associativity"`
			AccessTime float64 `json:"access_time_s"`
			ReadEnergy float64 `json:"read_energy_j"`
			Leakage    float64 `json:"leakage_w"`
			Area       float64 `json:"area_m2"`
		} `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("swept %d points (%d skipped); Pareto frontier over {access, energy, leakage, area}:\n",
		env.Points, env.Skipped)
	fmt.Println("  ram        capacity  assoc  access(ns)  read(nJ)  leak(W)  area(mm2)")
	for _, r := range env.Results {
		fmt.Printf("  %-9s %6dMB  %5d  %10.2f  %8.3f  %7.2f  %9.1f\n",
			r.RAM, r.Capacity>>20, r.Assoc,
			r.AccessTime*1e9, r.ReadEnergy*1e9, r.Leakage, r.Area*1e6)
	}

	if !*local {
		return
	}
	// The same sweep through the library: identical frontier.
	grid, err := req.Grid()
	if err != nil {
		log.Fatal(err)
	}
	specs, _ := grid.Expand()
	eng := explore.New(explore.Options{})
	frontier := explore.Frontier(eng.Sweep(context.Background(), specs))
	fmt.Printf("in-process sweep agrees: %d frontier points (server: %d), cache now holds %d entries\n",
		len(frontier), len(env.Results), eng.Stats().CacheEntries)
}

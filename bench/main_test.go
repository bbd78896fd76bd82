package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestResultLineHoldsBothLists checks that the last line carries the
// ledger's end-to-end and per-layer metrics whatever -trace is, and
// that an untraced run leaves out only the metrics the replay measures.
func TestResultLineHoldsBothLists(t *testing.T) {
	l := &ledger{
		EndToEnd: []ledgerMetric{{Name: "points_per_s", Unit: "1/s"}, {Name: "setup_s", Unit: "s"}},
		PerLayer: []ledgerMetric{{Name: "explore.tier0_hit_ratio", Unit: "ratio"}, {Name: "serve.decode_us_per_req", Unit: "us"}},
	}
	for _, traced := range []bool{false, true} {
		res := &result{Trace: traced, Attempted: 10, Values: map[string]float64{
			"points_per_s": 100, "setup_s": 0.004, "explore.tier0_hit_ratio": 1}}
		if traced {
			res.Values["serve.decode_us_per_req"] = 12
		}
		var out bytes.Buffer
		if err := emit(&out, l, res); err != nil {
			t.Fatal(err)
		}
		lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
		var line struct {
			Correct bool                 `json:"correct"`
			Metrics map[string]metricOut `json:"metrics"`
		}
		if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
			t.Fatal(err)
		}
		want := []string{"points_per_s", "setup_s", "explore.tier0_hit_ratio"}
		if traced {
			want = append(want, "serve.decode_us_per_req")
		}
		if !line.Correct || len(line.Metrics) != len(want) {
			t.Errorf("trace %t: correct %t, metrics %v; want correct with %v", traced, line.Correct, line.Metrics, want)
		}
		for _, n := range want {
			if _, ok := line.Metrics[n]; !ok {
				t.Errorf("trace %t: result line lacks %s", traced, n)
			}
		}
	}

	res := &result{Trace: true, Attempted: 10, Values: map[string]float64{"points_per_s": 100, "setup_s": 0.004, "explore.tier0_hit_ratio": 1}}
	if err := emit(&bytes.Buffer{}, l, res); err != nil {
		t.Fatal(err)
	}
	if res.Correct {
		t.Error("a traced run that lacks a traced ledger metric must not be correct")
	}
}

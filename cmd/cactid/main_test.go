package main

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"cactid/internal/core"
	"cactid/internal/explore"
	"cactid/internal/tech"
)

// TestJSONMatchesReference pins `cactid -json` to the reference
// rendering, json.MarshalIndent of explore.SolutionJSON plus a
// newline, for a cache with a tag array, for a non-default technology
// with write metrics, and for every technology provider on the spec
// `cactid -tech NAME -size 4MB -assoc 8 -node 32` solves: each one
// must solve and render.
func TestJSONMatchesReference(t *testing.T) {
	specs := []core.Spec{
		{Node: tech.Node32, RAM: tech.SRAM, CapacityBytes: 4 << 20, BlockBytes: 64,
			Associativity: 8, IsCache: true},
		{Node: tech.Node32, Technology: "stt-ram", CapacityBytes: 1 << 20, BlockBytes: 64,
			Associativity: 4, IsCache: true},
	}
	for _, name := range tech.Providers() {
		specs = append(specs, core.Spec{Node: tech.Node32, RAM: tech.SRAM, Technology: name,
			CapacityBytes: 4 << 20, BlockBytes: 64, Associativity: 8, Banks: 1, IsCache: true,
			MaxPipelineStages: 8, MaxAreaConstraint: 0.4, MaxAcctimeConstraint: 0.1})
	}
	for _, spec := range specs {
		sol, err := core.OptimizeContext(context.Background(), spec, nil)
		if err != nil {
			t.Fatalf("%s: %v", spec.Technology, err)
		}
		want, err := json.MarshalIndent(explore.SolutionJSON(sol), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := writeJSON(&got, sol); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), append(want, '\n')) {
			t.Fatalf("%s: -json output differs from the reference\n got %s\nwant %s", spec.Technology, got.Bytes(), want)
		}
	}
}

// The parse tests below hold the CLI to the vocabulary it takes from
// internal/explore, the same one cactid-serve's request fields use;
// explore's own tables hold every case.

func TestParseSize(t *testing.T) {
	cases := map[string]int64{
		"64":    64,
		"512B":  512,
		"32KB":  32 << 10,
		"4MB":   4 << 20,
		"2GB":   2 << 30,
		"1.5MB": 3 << 19,
		"8kb":   8 << 10,
		"1G":    1 << 30 / 8, // gigabit, for -chip capacities
		"2Gbit": 2 << 30 / 8,
	}
	for in, want := range cases {
		got, err := explore.ParseSize(in)
		if err != nil {
			t.Errorf("ParseSize(%q): %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("ParseSize(%q) = %d, want %d", in, got, want)
		}
	}
}

func TestParseSizeErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"empty", ""},
		{"letters", "abc"},
		{"bad-suffix", "12XB"},
		{"suffix-only", "MB"},
		{"double-suffix", "4MBKB"},
		{"zero", "0"},
		{"zero-with-suffix", "0MB"},
		{"negative", "-1"},
		{"negative-with-suffix", "-4KB"},
		{"overflow-float", "1e30GB"},
		{"overflow-mult", "99999999999GB"},
		{"overflow-int64", "9223372036854775807KB"},
		{"nan", "NaNMB"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got, err := explore.ParseSize(tc.in); err == nil {
				t.Errorf("ParseSize(%q) = %d, want error", tc.in, got)
			}
		})
	}
}

func TestParseRAM(t *testing.T) {
	cases := map[string]tech.RAMType{
		"sram": tech.SRAM, "SRAM": tech.SRAM,
		"lp-dram": tech.LPDRAM, "lpdram": tech.LPDRAM, "lp": tech.LPDRAM,
		"comm-dram": tech.COMMDRAM, "comm": tech.COMMDRAM, "cm": tech.COMMDRAM,
	}
	for in, want := range cases {
		got, err := explore.ParseRAM(in)
		if err != nil || got != want {
			t.Errorf("ParseRAM(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
}

func TestParseRAMErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"empty", ""},
		{"unknown", "flash"},
		{"ambiguous", "dram"},
		{"typo", "sramm"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := explore.ParseRAM(tc.in); err == nil {
				t.Errorf("ParseRAM(%q) should fail", tc.in)
			}
		})
	}
}

func TestParseMode(t *testing.T) {
	cases := map[string]core.AccessMode{
		"normal": core.Normal, "seq": core.Sequential,
		"sequential": core.Sequential, "fast": core.Fast,
	}
	for in, want := range cases {
		if got, err := explore.ParseMode(in); err != nil || got != want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := explore.ParseMode("warp"); err == nil {
		t.Error("unknown mode should fail")
	}
}

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
// newline, for a cache with a tag array and for a non-default
// technology with write metrics.
func TestJSONMatchesReference(t *testing.T) {
	for _, spec := range []core.Spec{
		{Node: tech.Node32, RAM: tech.SRAM, CapacityBytes: 4 << 20, BlockBytes: 64,
			Associativity: 8, IsCache: true},
		{Node: tech.Node32, Technology: "stt-ram", CapacityBytes: 1 << 20, BlockBytes: 64,
			Associativity: 4, IsCache: true},
	} {
		sol, err := core.OptimizeContext(context.Background(), spec, nil)
		if err != nil {
			t.Fatal(err)
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
			t.Fatalf("-json output differs from the reference\n got %s\nwant %s", got.Bytes(), want)
		}
	}
}

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
		got, err := parseSize(in)
		if err != nil {
			t.Errorf("parseSize(%q): %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("parseSize(%q) = %d, want %d", in, got, want)
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
			if got, err := parseSize(tc.in); err == nil {
				t.Errorf("parseSize(%q) = %d, want error", tc.in, got)
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
		got, err := parseRAM(in)
		if err != nil || got != want {
			t.Errorf("parseRAM(%q) = %v, %v; want %v", in, got, err, want)
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
			if _, err := parseRAM(tc.in); err == nil {
				t.Errorf("parseRAM(%q) should fail", tc.in)
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
		if got, err := parseMode(in); err != nil || got != want {
			t.Errorf("parseMode(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := parseMode("warp"); err == nil {
		t.Error("unknown mode should fail")
	}
}

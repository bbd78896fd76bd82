package explore

import (
	"encoding/json"
	"testing"

	"cactid/internal/core"
	"cactid/internal/tech"
)

func TestParseSize(t *testing.T) {
	good := map[string]int64{
		"64":     64,
		"512B":   512,
		"32KB":   32 << 10,
		"4MB":    4 << 20,
		"2GB":    2 << 30,
		"1.5MB":  3 << 19,
		"8kb":    8 << 10,
		"1G":     1 << 30 / 8, // gigabit
		"2Gbit":  2 << 30 / 8,
		" 16MB ": 16 << 20,
	}
	for in, want := range good {
		got, err := ParseSize(in)
		if err != nil {
			t.Errorf("ParseSize(%q): %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("ParseSize(%q) = %d, want %d", in, got, want)
		}
	}
	bad := []string{
		"", "abc", "12XB", "MB", "4MBKB", // malformed
		"0", "0MB", "-1", "-4KB", // non-positive
		"1e30GB", "99999999999GB", "9223372036854775807KB", // overflow
		"NaNMB", // not a number... strconv accepts "NaN"!
	}
	for _, in := range bad {
		if got, err := ParseSize(in); err == nil {
			t.Errorf("ParseSize(%q) = %d, want error", in, got)
		}
	}
}

func TestParseRAM(t *testing.T) {
	good := map[string]tech.RAMType{
		"sram": tech.SRAM, "SRAM": tech.SRAM,
		"lp-dram": tech.LPDRAM, "lpdram": tech.LPDRAM, "lp": tech.LPDRAM,
		"comm-dram": tech.COMMDRAM, "comm": tech.COMMDRAM, "cm": tech.COMMDRAM,
	}
	for in, want := range good {
		if got, err := ParseRAM(in); err != nil || got != want {
			t.Errorf("ParseRAM(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "flash", "dram", "sramm"} {
		if _, err := ParseRAM(bad); err == nil {
			t.Errorf("ParseRAM(%q) should fail", bad)
		}
	}
}

func TestParseMode(t *testing.T) {
	good := map[string]core.AccessMode{
		"": core.Normal, "normal": core.Normal, "n": core.Normal,
		"seq": core.Sequential, "sequential": core.Sequential, "SEQUENTIAL": core.Sequential,
		"fast": core.Fast, "f": core.Fast,
	}
	for in, want := range good {
		if got, err := ParseMode(in); err != nil || got != want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, bad := range []string{"slow", "x", "normal2", "warp"} {
		if _, err := ParseMode(bad); err == nil {
			t.Errorf("ParseMode(%q) should fail", bad)
		}
	}
}

func TestSpecRequestDefaults(t *testing.T) {
	s, err := SpecRequest{Capacity: "4MB"}.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if s.CapacityBytes != 4<<20 || s.BlockBytes != 64 || !s.IsCache ||
		s.RAM != tech.SRAM || s.Mode != core.Normal {
		t.Fatalf("defaults wrong: %+v", s)
	}
	no := false
	s2, err := SpecRequest{Capacity: "1MB", Cache: &no, RAM: "comm-dram", Mode: "seq", NodeNM: 45}.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if s2.IsCache || s2.RAM != tech.COMMDRAM || s2.Mode != core.Sequential || s2.Node != tech.Node45 {
		t.Fatalf("explicit fields lost: %+v", s2)
	}
	for _, bad := range []SpecRequest{
		{Capacity: "zap"},
		{Capacity: "1MB", RAM: "flash"},
		{Capacity: "1MB", Mode: "warp"},
	} {
		if _, err := bad.Spec(); err == nil {
			t.Errorf("request %+v should fail", bad)
		}
	}
}

func TestSweepRequestGrid(t *testing.T) {
	raw := `{
		"base": {"ram": "sram", "node_nm": 32, "block_bytes": 64},
		"capacities": ["32KB", "64KB"],
		"associativities": [2, 4],
		"modes": ["normal", "seq"],
		"rams": ["sram", "lp-dram"]
	}`
	var req SweepRequest
	if err := json.Unmarshal([]byte(raw), &req); err != nil {
		t.Fatal(err)
	}
	g, err := req.Grid()
	if err != nil {
		t.Fatal(err)
	}
	if g.Points() != 16 {
		t.Fatalf("Points = %d, want 16", g.Points())
	}
	specs, skipped := g.Expand()
	if len(specs) != 16 || skipped != 0 {
		t.Fatalf("expanded %d specs (%d skipped), want 16", len(specs), skipped)
	}
	if specs[0].RAM != tech.SRAM || specs[len(specs)-1].RAM != tech.LPDRAM {
		t.Error("RAM axis order wrong")
	}
	// Bad axis values propagate.
	req.Capacities = []string{"1ZB"}
	if _, err := req.Grid(); err == nil {
		t.Error("bad capacity axis should fail")
	}
}

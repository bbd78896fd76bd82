package spectest

import (
	"fmt"
	"go/parser"
	"go/token"
	"io/fs"
	"math"
	"math/rand/v2"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"cactid/internal/core"
	"cactid/internal/tech"
)

// TestOnlyTestsImport: the generator is test support. No non-test Go
// file under internal/, cmd/ or examples/ may import it.
func TestOnlyTestsImport(t *testing.T) {
	const self = "cactid/internal/spectest"
	fset := token.NewFileSet()
	files := 0
	for _, root := range []string{"../../internal", "../../cmd", "../../examples"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if d.Name() == "testdata" {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
			if err != nil {
				return err
			}
			files++
			for _, imp := range f.Imports {
				if p, _ := strconv.Unquote(imp.Path.Value); p == self {
					t.Errorf("%s imports %s; only test files may", path, self)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if files < 50 {
		t.Fatalf("walked only %d non-test Go files", files)
	}
}

// TestSpecCoversEveryField: over 20,000 draws, every field takes each
// value any of the test-local generators Spec replaced could draw, so
// folding them into one generator narrowed no test's space.
func TestSpecCoversEveryField(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	seen := map[string]map[string]bool{}
	note := func(field string, v any) {
		if seen[field] == nil {
			seen[field] = map[string]bool{}
		}
		seen[field][keyOf(v)] = true
	}
	for i := 0; i < 20000; i++ {
		s := Spec(r)
		note("Technology", s.Technology)
		note("Node", s.Node)
		note("RAM", s.RAM)
		note("BlockBytes", s.BlockBytes)
		note("Associativity", s.Associativity)
		note("Banks", s.Banks)
		note("IsCache", s.IsCache)
		note("Mode", s.Mode)
		note("PageBits", s.PageBits)
		note("MaxPipelineStages", s.MaxPipelineStages)
		note("MaxAreaConstraint", s.MaxAreaConstraint)
		note("MaxAcctimeConstraint", s.MaxAcctimeConstraint)
		note("MaxRepeaterSlack", s.MaxRepeaterSlack)
		note("SleepTransistors", s.SleepTransistors)
		note("Ports", s.Ports)
		note("ECC", s.ECC)
		note("IncludeBankRouting", s.IncludeBankRouting)
		note("PhysicalAddressBits", s.PhysicalAddressBits)
		note("BankCapacity", s.CapacityBytes/int64(max(s.Banks, 1)))
		if s.Weights == nil {
			note("Weights", "nil")
		} else {
			for _, w := range []float64{s.Weights.DynamicEnergy, s.Weights.LeakagePower, s.Weights.RandomCycle, s.Weights.InterleaveCycle} {
				note("Weights", w)
			}
		}
		if s.TagRAM == nil {
			note("TagRAM", "nil")
		} else {
			note("TagRAM", *s.TagRAM)
		}
	}
	edgeInts := []any{-3, 0, 1, 2, 6, 8, 40, 8192, math.MaxInt32}
	edgeFloats := []any{0.0, 0.4, 0.1, -0.25, 3.0, 1e-300, 5e-324, 1e21, -1e-7,
		math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()}
	var providers, rams, tagRAMs []any
	for _, p := range tech.Providers() {
		providers = append(providers, p)
	}
	for r := tech.RAMType(0); int(r) < tech.NumRAMTypes; r++ {
		rams = append(rams, r)
		tagRAMs = append(tagRAMs, r)
	}
	var bankCaps []any
	for k := 10; k < 30; k++ {
		bankCaps = append(bankCaps, int64(1)<<k)
	}
	want := map[string][]any{
		"Technology":           append(providers, ""),
		"Node":                 {tech.Node(0), tech.Node(32), tech.Node(45), tech.Node(65), tech.Node(78), tech.Node(90)},
		"RAM":                  rams,
		"BlockBytes":           {32, 64, 128},
		"Associativity":        append([]any{4, 16}, edgeInts...),
		"Banks":                {0, 1, 2, 3, 4, 5, 6, 7, 8},
		"IsCache":              {false, true},
		"Mode":                 {core.Normal, core.Sequential, core.Fast},
		"PageBits":             append([]any{1024, 2048, 4096, 1 << 20}, edgeInts...),
		"MaxPipelineStages":    append([]any{6}, edgeInts...),
		"MaxAreaConstraint":    edgeFloats,
		"MaxAcctimeConstraint": edgeFloats,
		"MaxRepeaterSlack":     append([]any{0.2}, edgeFloats...),
		"SleepTransistors":     {false, true},
		"Ports":                edgeInts,
		"ECC":                  {false, true},
		"IncludeBankRouting":   {false, true},
		"PhysicalAddressBits":  edgeInts,
		"BankCapacity":         bankCaps,
		"Weights":              append([]any{"nil"}, edgeFloats...),
		"TagRAM":               append(tagRAMs, "nil"),
	}
	for field, values := range want {
		for _, v := range values {
			if !seen[field][keyOf(v)] {
				t.Errorf("%s never takes %v", field, v)
			}
		}
	}
}

// keyOf spells a drawn value so that equal values, NaN and negative
// zero included, spell the same.
func keyOf(v any) string {
	switch v := v.(type) {
	case float64:
		return "f" + strconv.FormatUint(math.Float64bits(v), 16)
	case int:
		return "i" + strconv.Itoa(v)
	case int64:
		return "i" + strconv.FormatInt(v, 10)
	}
	return fmt.Sprintf("%T:%v", v, v)
}

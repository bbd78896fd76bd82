package analysis

import (
	"path/filepath"
	"strings"
	"testing"
)

// The callgraph fixture (testdata/callgraph) exercises the dynamic
// call forms the determinism cone depends on resolving conservatively:
// interface dispatch lands on every same-name, same-signature method;
// method values and address-taken functions feed func-value call
// sites; and the canonical-signature filter keeps lookalikes out.

const (
	cgApp    = "fixture/callgraph/app."
	cgShapes = "fixture/callgraph/shapes."
)

func cgReach(t *testing.T, g *CallGraph, root string) map[string]bool {
	t.Helper()
	if g.Nodes[root] == nil {
		t.Fatalf("root %s not in graph:\n%s", root, g)
	}
	seen, witness := g.Reachable([]string{root})
	for id := range seen {
		if witness[id] != root {
			t.Errorf("witness[%s] = %q, want %q", id, witness[id], root)
		}
	}
	return seen
}

func TestCallGraphInterfaceDispatch(t *testing.T) {
	prog := loadFixtureProgram(t, "callgraph")
	seen := cgReach(t, prog.CallGraph, cgApp+"Total")

	for _, want := range []string{cgShapes + "Circle.Area", cgShapes + "Square.Area"} {
		if !seen[want] {
			t.Errorf("interface dispatch must reach %s conservatively; graph:\n%s", want, prog.CallGraph)
		}
	}
	for _, not := range []string{cgShapes + "Labeled.Area", cgShapes + "Helper", cgApp + "Isolated"} {
		if seen[not] {
			t.Errorf("%s must not be reachable from Total; graph:\n%s", not, prog.CallGraph)
		}
	}
}

func TestCallGraphMethodValue(t *testing.T) {
	prog := loadFixtureProgram(t, "callgraph")
	seen := cgReach(t, prog.CallGraph, cgApp+"MethodValue")

	if !seen[cgShapes+"Circle.Area"] {
		t.Errorf("method value must add an edge to Circle.Area; graph:\n%s", prog.CallGraph)
	}
	if seen[cgShapes+"Square.Area"] {
		t.Errorf("a bound method value must not fan out to other implementations; graph:\n%s", prog.CallGraph)
	}
}

func TestCallGraphFuncValueBySignature(t *testing.T) {
	prog := loadFixtureProgram(t, "callgraph")
	g := prog.CallGraph

	// TakeHelper / TakeFloat mark their returns address-taken before
	// CallValue's dynamic site resolves (the graph is whole-program,
	// order-free), so force them into the root set alongside the call.
	seen, _ := g.Reachable([]string{cgApp + "CallValue", cgApp + "TakeHelper", cgApp + "TakeFloat"})

	if !seen[cgShapes+"Helper"] {
		t.Errorf("func-value call must reach the address-taken signature match Helper; graph:\n%s", g)
	}
	if seen[cgShapes+"Unrelated"] {
		t.Errorf("Unrelated is never address-taken and must not be a func-value target; graph:\n%s", g)
	}

	// Signature filter: CallValue's ()(int) site must not pick up the
	// address-taken ()(float32) function.
	cv := g.Nodes[cgApp+"CallValue"]
	if cv == nil {
		t.Fatalf("CallValue missing from graph:\n%s", g)
	}
	if cv.calls[cgShapes+"FloatFn"] {
		t.Errorf("CallValue must not call FloatFn (signature mismatch); graph:\n%s", g)
	}
	if !cv.calls[cgShapes+"Helper"] {
		t.Errorf("CallValue must call Helper; graph:\n%s", g)
	}
}

func TestCallGraphIsolated(t *testing.T) {
	prog := loadFixtureProgram(t, "callgraph")
	seen := cgReach(t, prog.CallGraph, cgApp+"Isolated")
	if len(seen) != 1 {
		t.Errorf("Isolated must reach only itself, got %d nodes", len(seen))
	}
}

// TestCallGraphRealTree sanity-checks FuncID and node coverage on the
// repository itself: every node ID is package-qualified, and the
// byte-identity cone reaches across packages from the solver roots and
// includes the Pareto filter every served frontier comes from.
func TestCallGraphRealTree(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module")
	}
	dir, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := LoadProgram(dir, "./...")
	if err != nil {
		t.Fatal(err)
	}
	g := prog.CallGraph
	if len(g.Nodes) < 100 {
		t.Fatalf("suspiciously small call graph: %d nodes", len(g.Nodes))
	}
	for id := range g.Nodes {
		if !strings.HasPrefix(id, "cactid/") && !strings.HasPrefix(id, "main.") {
			t.Errorf("node ID %q is not package-qualified", id)
		}
	}
	var roots []string
	for id, n := range g.Nodes {
		if detPureRoot(n) {
			roots = append(roots, id)
		}
	}
	if len(roots) == 0 {
		t.Fatal("no detpure roots found in the real tree")
	}
	seen, _ := g.Reachable(roots)
	// The cone must cross package boundaries (the solver calls into
	// the array enumeration which calls into mat) and hold the
	// frontier filter.
	for _, want := range []string{"cactid/internal/core.ExploreContext", "cactid/internal/mat.Shared.BuildInto",
		"cactid/internal/explore.Frontier"} {
		if g.Nodes[want] == nil {
			t.Fatalf("expected node %s in the real graph", want)
		}
		if !seen[want] {
			t.Errorf("expected %s inside the byte-identity cone", want)
		}
	}
}

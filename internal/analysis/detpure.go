package analysis

import (
	"go/ast"
	"go/types"
	"sort"
)

// DetPure is the determinism-taint analyzer: inside the byte-identity
// cone — every function reachable, on the conservative call graph,
// from the solver entry points whose outputs the repo pins
// byte-for-byte — it flags the operations that can make two runs
// differ:
//
//  1. wall-clock reads (time.Now / time.Since / time.Until): any
//     value derived from them differs run to run;
//  2. math/rand (v1 or v2): pseudo-randomness, seeded or not, has no
//     place on a result path;
//  3. output produced in map iteration order — appending to an outer
//     slice, sending on a channel, or fmt-formatting inside a
//     range-over-map body (floatdet's float-specific rule,
//     generalized to every element type, but only inside the cone
//     where ordering is load-bearing);
//  4. goroutine-order-dependent appends: a goroutine body appending
//     to a slice declared outside it — the final element order is an
//     interleaving accident.
//
// The cone roots are the byte-identity surface (matched by package
// name so fixtures exercise the same predicates):
//
//   - core.Solve / Explore / ExploreContext / Optimize /
//     OptimizeContext — the solver API whose outputs the 7-digit pins
//     and the store digests freeze;
//   - array.Enumerate* — the enumeration every solve, including the
//     solves of a sweep that share one prescan, must replay
//     byte-identically;
//   - explore.Frontier — the Pareto filter every served frontier,
//     single-node or distributed, comes from.
//
// Reachability does the work — no hand-listed packages: a helper
// three calls deep in internal/mat is in the cone because the graph
// says so, and a new package joins the cone the moment the solver
// calls into it.
var DetPure = &Analyzer{
	Name:       "detpure",
	Doc:        "flags nondeterminism (time, rand, map-order or goroutine-order output) in functions reachable from the byte-identity solver entry points",
	RunProgram: runDetPure,
}

// detPureRoot reports whether a call-graph node is a cone root.
func detPureRoot(n *Node) bool {
	if n.Pkg.Types == nil {
		return false
	}
	pkgName := n.Pkg.Types.Name()
	name := n.Fn.Name()
	recv := receiverTypeName(n.Fn)
	switch pkgName {
	case "core":
		switch name {
		case "Solve", "Explore", "ExploreContext", "Optimize", "OptimizeContext":
			return recv == ""
		}
	case "array":
		return len(name) >= 9 && name[:9] == "Enumerate"
	case "explore":
		return name == "Frontier" && recv == ""
	}
	return false
}

// receiverTypeName returns the bare receiver type name of a method
// ("" for package functions).
func receiverTypeName(f *types.Func) string {
	sig, _ := f.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

func runDetPure(pass *ProgramPass) error {
	g := pass.Prog.CallGraph
	if g == nil {
		return nil
	}
	var roots []string
	for id, n := range g.Nodes {
		if detPureRoot(n) {
			roots = append(roots, id)
		}
	}
	reachable, witness := g.Reachable(roots)

	ids := make([]string, 0, len(reachable))
	for id := range reachable {
		if g.Nodes[id] != nil {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	for _, id := range ids {
		n := g.Nodes[id]
		checkDetPureFunc(pass, n, witness[id])
	}
	return nil
}

// checkDetPureFunc scans one in-cone function body (closures
// included — they execute as part of the function) for the four
// hazard classes.
func checkDetPureFunc(pass *ProgramPass, n *Node, root string) {
	info := n.Pkg.Info
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		switch e := node.(type) {
		case *ast.SelectorExpr:
			if obj := info.Uses[e.Sel]; obj != nil && obj.Pkg() != nil {
				switch obj.Pkg().Path() {
				case "math/rand", "math/rand/v2":
					pass.Report(e.Pos(), "math/rand use in %s (reachable from %s): randomness on a byte-identity result path", n.ID, root)
					return false
				case "time":
					switch obj.Name() {
					case "Now", "Since", "Until":
						pass.Report(e.Pos(), "time.%s in %s (reachable from %s): wall-clock reads are nondeterministic on a byte-identity result path", obj.Name(), n.ID, root)
						return false
					}
				}
			}
		case *ast.RangeStmt:
			if isMapType(info.TypeOf(e.X)) {
				checkDetPureMapRange(pass, info, e, n, root, n.Decl.Body)
			}
		case *ast.GoStmt:
			checkDetPureGoroutine(pass, info, e, n, root)
		}
		return true
	})
}

// checkDetPureMapRange flags ordered output produced inside a
// range-over-map body: appends to a slice declared outside the loop
// (any element type), channel sends, and fmt-family formatting. The
// collect-then-sort idiom — the very fix the diagnostic recommends —
// is recognized and left alone: an append target that is later
// sorted in the same function carries no iteration order out.
func checkDetPureMapRange(pass *ProgramPass, info *types.Info, rng *ast.RangeStmt, n *Node, root string, funcBody *ast.BlockStmt) {
	ast.Inspect(rng.Body, func(node ast.Node) bool {
		switch e := node.(type) {
		case *ast.RangeStmt:
			// Nested map ranges get their own visit from the outer
			// walk; nested slice ranges still run in map order.
			return e == rng || !isMapType(info.TypeOf(e.X))
		case *ast.SendStmt:
			pass.Report(e.Pos(), "channel send in map iteration order in %s (reachable from %s): receivers observe a nondeterministic sequence; sort the keys first", n.ID, root)
			return false
		case *ast.CallExpr:
			if name, ok := calleeName(info, e); ok {
				if name == "append" && len(e.Args) > 0 && declaredOutside(info, e.Args[0], rng) &&
					!sortedInBody(info, funcBody, e.Args[0]) {
					pass.Report(e.Pos(), "append in map iteration order in %s (reachable from %s): element order is nondeterministic; sort the keys first", n.ID, root)
					return false
				}
				if isFmtFormatter(name) {
					pass.Report(e.Pos(), "formatting in map iteration order in %s (reachable from %s): output order is nondeterministic; sort the keys first", n.ID, root)
					return false
				}
			}
		}
		return true
	})
}

// sortFns are the sorting entry points that erase insertion order.
var sortFns = map[string]bool{
	"sort.Strings": true, "sort.Ints": true, "sort.Float64s": true,
	"sort.Slice": true, "sort.SliceStable": true, "sort.Sort": true, "sort.Stable": true,
	"slices.Sort": true, "slices.SortFunc": true, "slices.SortStableFunc": true,
}

// sortedInBody reports whether the slice rooted at target is passed
// to a sort function anywhere in the function body.
func sortedInBody(info *types.Info, body *ast.BlockStmt, target ast.Expr) bool {
	obj := rootObject(info, target)
	if obj == nil {
		return false
	}
	found := false
	ast.Inspect(body, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		name, ok := calleeName(info, call)
		if !ok || !sortFns[name] || len(call.Args) == 0 {
			return true
		}
		if rootObject(info, call.Args[0]) == obj {
			found = true
			return false
		}
		return true
	})
	return found
}

// checkDetPureGoroutine flags appends to shared slices inside a
// goroutine body: the interleaving decides the element order.
func checkDetPureGoroutine(pass *ProgramPass, info *types.Info, g *ast.GoStmt, n *Node, root string) {
	lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit)
	if !ok {
		return
	}
	ast.Inspect(lit.Body, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		if name, ok := calleeName(info, call); ok && name == "append" &&
			len(call.Args) > 0 && declaredOutside(info, call.Args[0], lit) {
			// Only assignment back into the shared slice is hazardous;
			// `tmp := append(shared, ...)` inside the goroutine still
			// races but does not reorder shared itself. The append
			// call's first argument rooted outside the closure is the
			// conservative signal either way.
			pass.Report(call.Pos(), "append to a slice declared outside the goroutine in %s (reachable from %s): element order depends on goroutine scheduling; merge per-worker slices in a fixed order instead", n.ID, root)
			return false
		}
		return true
	})
}

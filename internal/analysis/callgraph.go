package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the interprocedural layer under the program-level
// analyzers: a package-level call graph over every function declared
// in the analyzed packages.
//
// The loader type-checks each target package from source while its
// dependencies — including other target packages — resolve from
// compiled export data. A function therefore has two incompatible
// identities: the *types.Func of its source-checked declaration and
// the *types.Func other packages import. The graph bridges the two by
// keying every node on a stable string ID (FuncID) that both views
// render identically, so cross-package edges land on the node that
// owns the declaration body.
//
// The graph is deliberately an over-approximation — for a determinism
// cone, missing an edge is the only unsafe direction:
//
//   - static calls (including go and defer) add one edge;
//   - a call through an interface method adds an edge to every
//     declared method with the same name and canonical signature
//     (conservative class-hierarchy dispatch; object identity cannot
//     be compared across type-check universes, so signatures are
//     matched as fully-qualified strings);
//   - a function or method referenced outside call position (a method
//     value, a func value stored or passed) adds a direct edge from
//     the referencing function and marks the target address-taken;
//   - a call through a func-typed expression adds an edge to every
//     address-taken function in the program with the same canonical
//     signature.

// Program is the whole-program view the interprocedural analyzers
// consume: every loaded package over one shared FileSet plus the call
// graph across them.
type Program struct {
	Fset *token.FileSet
	Pkgs []*Package
	// CallGraph is built by LoadProgram (or BuildCallGraph).
	CallGraph *CallGraph
}

// Node is one declared function or method in the call graph.
type Node struct {
	ID   string
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	// calls is the set of callee IDs, conservative per the package
	// comment. IDs may name functions with no node (stdlib, export-
	// data-only dependencies); reachability simply has no body to
	// continue through there.
	calls map[string]bool
}

// CallGraph is the package-level call graph over a Program.
type CallGraph struct {
	Nodes map[string]*Node
}

// FuncID renders the stable identity of f: "pkg/path.Func" for
// package functions, "pkg/path.Type.Method" for methods (pointerness
// of the receiver is erased — both views must agree), and plain names
// for builtins. Generic instantiations collapse onto their origin.
func FuncID(f *types.Func) string {
	f = f.Origin()
	sig, _ := f.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			obj := named.Obj()
			if obj.Pkg() != nil {
				return obj.Pkg().Path() + "." + obj.Name() + "." + f.Name()
			}
			return obj.Name() + "." + f.Name()
		}
		// Interface method via an anonymous interface: no stable
		// receiver name; fall through to the bare name.
		return f.Name()
	}
	if f.Pkg() != nil {
		return f.Pkg().Path() + "." + f.Name()
	}
	return f.Name()
}

// BuildCallGraph builds the conservative call graph over prog's
// packages.
func BuildCallGraph(prog *Program) *CallGraph {
	g := &CallGraph{Nodes: map[string]*Node{}}

	// methodsByName and addrTaken resolve the two dynamic call forms;
	// both are collected in the first pass over every package. Dynamic
	// edges match on the canonical signature string (types only, fully
	// package-qualified, receiver excluded): identical rendering from
	// both sides of the source/export-data divide, and the tightest
	// sound criterion — a dynamic call can only land on a function the
	// type system would let the call site hold.
	type dynCall struct {
		from *Node
		name string // interface method name, "" for func-value calls
		sig  string // canonical signature of the call site, "" unknown
	}
	methodsByName := map[string][]*Node{}
	var addrTaken []*Node
	addrTakenSeen := map[string]bool{}
	var dyns []dynCall

	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				n := &Node{ID: FuncID(fn), Fn: fn, Decl: fd, Pkg: pkg, calls: map[string]bool{}}
				g.Nodes[n.ID] = n
				if fd.Recv != nil {
					methodsByName[fn.Name()] = append(methodsByName[fn.Name()], n)
				}
			}
		}
	}

	markTaken := func(n *Node) {
		if n != nil && !addrTakenSeen[n.ID] {
			addrTakenSeen[n.ID] = true
			addrTaken = append(addrTaken, n)
		}
	}

	for _, n := range g.Nodes {
		info := n.Pkg.Info
		// calleeIdents marks the identifiers that ARE the callee of a
		// static call, so the reference pass below treats every other
		// *types.Func use as a value taken.
		calleeIdents := map[*ast.Ident]bool{}
		ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
			e, ok := node.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee, calleeIdent, iface := resolveCallee(info, e)
			switch {
			case callee != nil:
				n.calls[FuncID(callee)] = true
				calleeIdents[calleeIdent] = true
			case iface != "":
				dyns = append(dyns, dynCall{from: n, name: iface, sig: callSiteSig(info, e)})
				if calleeIdent != nil {
					calleeIdents[calleeIdent] = true
				}
			case isFuncValueCall(info, e):
				dyns = append(dyns, dynCall{from: n, sig: callSiteSig(info, e)})
			}
			return true
		})
		ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
			id, ok := node.(*ast.Ident)
			if !ok || calleeIdents[id] {
				return true
			}
			if fn, ok := info.Uses[id].(*types.Func); ok {
				// Function or method value taken (a method value, a
				// func passed or stored): direct edge from the taker
				// plus address-taken registration for indirect calls.
				n.calls[FuncID(fn)] = true
				markTaken(g.Nodes[FuncID(fn)])
				if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
					// Interface method value: the eventual call could
					// land on any implementation — treat like dispatch.
					dyns = append(dyns, dynCall{from: n, name: fn.Name(), sig: sigKey(sig)})
				}
			}
			return true
		})
	}

	// Resolve dynamic calls now that address-taken and methods-by-name
	// are complete.
	for _, d := range dyns {
		if d.name != "" {
			for _, m := range methodsByName[d.name] {
				if sigCompatible(m.Fn, d.sig) {
					d.from.calls[m.ID] = true
				}
			}
			continue
		}
		for _, t := range addrTaken {
			if sigCompatible(t.Fn, d.sig) {
				d.from.calls[t.ID] = true
			}
		}
	}
	return g
}

// callSiteSig renders the canonical signature of the expression being
// called ("" when unavailable).
func callSiteSig(info *types.Info, call *ast.CallExpr) string {
	tv, ok := info.Types[ast.Unparen(call.Fun)]
	if !ok || tv.Type == nil {
		return ""
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return ""
	}
	return sigKey(sig)
}

// sigKey renders a signature canonically — parameter and result
// types only (no names, no receiver), fully package-qualified — so
// signatures render identically from the source-checked and
// export-data views of the same function.
func sigKey(sig *types.Signature) string {
	var b strings.Builder
	b.WriteByte('(')
	for i := 0; i < sig.Params().Len(); i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(types.TypeString(sig.Params().At(i).Type(), qualifyFull))
	}
	b.WriteString(")(")
	for i := 0; i < sig.Results().Len(); i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(types.TypeString(sig.Results().At(i).Type(), qualifyFull))
	}
	b.WriteByte(')')
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}

// qualifyFull names a package by its full import path in type strings.
func qualifyFull(p *types.Package) string { return p.Path() }

// sigCompatible reports whether fn could be the target of a dynamic
// call with the given canonical call-site signature. An unknown site
// signature ("") stays fully conservative and matches everything.
func sigCompatible(fn *types.Func, siteSig string) bool {
	if siteSig == "" {
		return true
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return true
	}
	return sigKey(sig) == siteSig
}

// resolveCallee resolves a call expression to its static callee, or
// to the name of the interface method it dispatches through. The
// returned ident (when non-nil) is the identifier standing in call
// position, so the reference pass can skip it. callee==nil and
// ifaceMethod=="" means the call is through a func-typed expression
// (or a conversion/builtin).
func resolveCallee(info *types.Info, call *ast.CallExpr) (callee *types.Func, calleeIdent *ast.Ident, ifaceMethod string) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f, fun, ""
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			f, _ := sel.Obj().(*types.Func)
			if f == nil {
				return nil, nil, ""
			}
			if types.IsInterface(sel.Recv()) {
				return nil, fun.Sel, f.Name()
			}
			return f, fun.Sel, ""
		}
		// Package-qualified call (pkg.F) has no Selection entry.
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f, fun.Sel, ""
		}
	case *ast.IndexExpr:
		// Generic instantiation F[T](...).
		if id, ok := fun.X.(*ast.Ident); ok {
			if f, ok := info.Uses[id].(*types.Func); ok {
				return f, id, ""
			}
		}
	}
	return nil, nil, ""
}

// isFuncValueCall reports whether call invokes a func-typed
// expression (variable, field, parameter, map entry, call result)
// rather than a declared function, builtin, or conversion.
func isFuncValueCall(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[ast.Unparen(call.Fun)]
	if !ok {
		return false
	}
	if tv.IsType() || tv.IsBuiltin() {
		return false
	}
	_, isSig := tv.Type.Underlying().(*types.Signature)
	return isSig
}

// Reachable returns the set of node IDs reachable from the given
// roots (roots included, when present in the graph), alongside a
// witness map naming, for each reachable node, the root that first
// reached it — the "byte-identity cone" evidence detpure prints.
func (g *CallGraph) Reachable(roots []string) (map[string]bool, map[string]string) {
	seen := map[string]bool{}
	witness := map[string]string{}
	queue := make([]string, 0, len(roots))
	sorted := append([]string(nil), roots...)
	sort.Strings(sorted)
	for _, r := range sorted {
		if g.Nodes[r] != nil && !seen[r] {
			seen[r] = true
			witness[r] = r
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		n := g.Nodes[id]
		if n == nil {
			continue
		}
		callees := make([]string, 0, len(n.calls))
		for c := range n.calls {
			callees = append(callees, c)
		}
		sort.Strings(callees)
		for _, c := range callees {
			if !seen[c] {
				seen[c] = true
				witness[c] = witness[id]
				if g.Nodes[c] != nil {
					queue = append(queue, c)
				}
			}
		}
	}
	return seen, witness
}

// String renders the graph for debugging: one sorted "caller -> [callees]"
// line per node.
func (g *CallGraph) String() string {
	ids := make([]string, 0, len(g.Nodes))
	for id := range g.Nodes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var b strings.Builder
	for _, id := range ids {
		n := g.Nodes[id]
		callees := make([]string, 0, len(n.calls))
		for c := range n.calls {
			callees = append(callees, c)
		}
		sort.Strings(callees)
		fmt.Fprintf(&b, "%s -> %v\n", id, callees)
	}
	return b.String()
}

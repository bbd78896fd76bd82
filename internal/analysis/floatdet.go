package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// FloatDet flags nondeterminism hazards on floating-point result
// paths. The solver's outputs, which the repository pins byte for
// byte, depend on every float being computed by the exact same
// sequence of operations on every run:
//
//  1. accumulating into (or formatting) floats while ranging over a
//     map — iteration order is randomized, and float addition is not
//     associative, so the sum (or the emitted text) differs run to
//     run; collect the keys, sort them, then iterate;
//  2. math.FMA — a fused multiply-add rounds once where a*b+c rounds
//     twice, so mixing the two forms across refactored helper
//     boundaries silently changes results;
//  3. ==/!= on a freshly computed float expression — exact equality
//     of computed floats depends on expression grouping, which is
//     precisely what refactors change.
var FloatDet = &Analyzer{
	Name: "floatdet",
	Doc:  "flags nondeterminism hazards on float result paths (map-order accumulation, math.FMA, exact equality of computed floats)",
	Run:  runFloatDet,
}

func runFloatDet(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				if isMapType(pass.TypesInfo.TypeOf(n.X)) {
					checkMapRangeBody(pass, n)
				}
			case *ast.CallExpr:
				if isMathFMA(pass.TypesInfo, n) {
					pass.Report(n.Pos(), "math.FMA rounds once where a*b+c rounds twice; it changes results across refactors of the same expression")
				}
			case *ast.BinaryExpr:
				if n.Op == token.EQL || n.Op == token.NEQ {
					checkFloatEquality(pass, n)
				}
			}
			return true
		})
	}
	return nil
}

func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// checkMapRangeBody reports order-sensitive float operations inside a
// range-over-map body: compound accumulation into a variable declared
// outside the loop, appends of floats to an outer slice, and
// fmt-family formatting of float values.
func checkMapRangeBody(pass *Pass, rng *ast.RangeStmt) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			// Descend into nested slice/array ranges (their bodies
			// still run in map order), but not nested map ranges:
			// those get their own visit from runFloatDet.
			return n == rng || !isMapType(pass.TypesInfo.TypeOf(n.X))
		case *ast.AssignStmt:
			switch n.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
				for _, lhs := range n.Lhs {
					if isFloat(pass.TypesInfo.TypeOf(lhs)) && declaredOutside(pass.TypesInfo, lhs, rng) {
						pass.Report(n.Pos(), "float accumulation in map iteration order is nondeterministic; sort the keys first")
						return false
					}
				}
			case token.ASSIGN:
				// x = x + v (or x = v + x) forms.
				for i, lhs := range n.Lhs {
					if i >= len(n.Rhs) || !isFloat(pass.TypesInfo.TypeOf(lhs)) || !declaredOutside(pass.TypesInfo, lhs, rng) {
						continue
					}
					if bin, ok := n.Rhs[i].(*ast.BinaryExpr); ok &&
						(bin.Op == token.ADD || bin.Op == token.MUL) &&
						(types.ExprString(bin.X) == types.ExprString(lhs) || types.ExprString(bin.Y) == types.ExprString(lhs)) {
						pass.Report(n.Pos(), "float accumulation in map iteration order is nondeterministic; sort the keys first")
						return false
					}
				}
			}
		case *ast.CallExpr:
			if name, ok := calleeName(pass.TypesInfo, n); ok {
				if name == "append" {
					for _, arg := range n.Args[1:] {
						if isFloat(pass.TypesInfo.TypeOf(arg)) {
							pass.Report(n.Pos(), "appending floats in map iteration order is nondeterministic; sort the keys first")
							return false
						}
					}
				}
				if isFmtFormatter(name) {
					for _, arg := range n.Args {
						if isFloat(pass.TypesInfo.TypeOf(arg)) {
							pass.Report(n.Pos(), "formatting floats in map iteration order emits nondeterministic output; sort the keys first")
							return false
						}
					}
				}
			}
		}
		return true
	})
}

// declaredOutside reports whether the root identifier of expr is
// declared outside the node span [outer.Pos(), outer.End()] (for a
// range statement: mutations survive the loop, so the final value
// depends on iteration order).
func declaredOutside(info *types.Info, expr ast.Expr, outer ast.Node) bool {
	obj := rootObject(info, expr)
	return obj != nil && (obj.Pos() < outer.Pos() || obj.Pos() > outer.End())
}

// rootObject resolves the root identifier's object of a selector/
// index/star/paren chain, or nil.
func rootObject(info *types.Info, expr ast.Expr) types.Object {
	for {
		switch e := expr.(type) {
		case *ast.Ident:
			return info.ObjectOf(e)
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		default:
			return nil
		}
	}
}

// calleeName resolves a call to "pkg.Func", a builtin name, or a
// method name; ok is false for indirect calls.
func calleeName(info *types.Info, call *ast.CallExpr) (string, bool) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if obj := info.ObjectOf(fun); obj != nil {
			if b, ok := obj.(*types.Builtin); ok {
				return b.Name(), true
			}
			if f, ok := obj.(*types.Func); ok {
				return qualifiedName(f), true
			}
		}
	case *ast.SelectorExpr:
		if f, ok := info.ObjectOf(fun.Sel).(*types.Func); ok {
			return qualifiedName(f), true
		}
	}
	return "", false
}

func qualifiedName(f *types.Func) string {
	if pkg := f.Pkg(); pkg != nil && f.Type().(*types.Signature).Recv() == nil {
		return pkg.Path() + "." + f.Name()
	}
	return f.Name()
}

func isMathFMA(info *types.Info, call *ast.CallExpr) bool {
	name, ok := calleeName(info, call)
	return ok && name == "math.FMA"
}

// fmtFormatters are the fmt functions whose output lands on a result
// path (string building or writers).
var fmtFormatters = map[string]bool{
	"fmt.Sprintf": true, "fmt.Sprint": true, "fmt.Sprintln": true,
	"fmt.Fprintf": true, "fmt.Fprint": true, "fmt.Fprintln": true,
	"fmt.Printf": true, "fmt.Print": true, "fmt.Println": true,
	"fmt.Appendf": true, "fmt.Append": true, "fmt.Appendln": true,
}

func isFmtFormatter(name string) bool { return fmtFormatters[name] }

// checkFloatEquality flags ==/!= where an operand is itself float
// arithmetic: exact equality of a computed float depends on the
// expression's grouping.
func checkFloatEquality(pass *Pass, bin *ast.BinaryExpr) {
	if !isFloat(pass.TypesInfo.TypeOf(bin.X)) || !isFloat(pass.TypesInfo.TypeOf(bin.Y)) {
		return
	}
	if isFloatArithmetic(pass, bin.X) || isFloatArithmetic(pass, bin.Y) {
		pass.Report(bin.Pos(), "exact %s on a computed float depends on expression grouping; compare stored values or use a tolerance", bin.Op)
	}
}

func isFloatArithmetic(pass *Pass, expr ast.Expr) bool {
	b, ok := ast.Unparen(expr).(*ast.BinaryExpr)
	if !ok {
		return false
	}
	// Constant-folded arithmetic (2 * math.Pi) is evaluated exactly
	// at compile time and is deterministic.
	if tv, found := pass.TypesInfo.Types[ast.Unparen(expr)]; found && tv.Value != nil {
		return false
	}
	switch b.Op {
	case token.ADD, token.SUB, token.MUL, token.QUO:
		return isFloat(pass.TypesInfo.TypeOf(expr))
	}
	return false
}

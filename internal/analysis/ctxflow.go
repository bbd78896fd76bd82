package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// CtxFlow enforces context propagation through the solver's
// cancellable call graph (core.ExploreContext -> array.EnumerateContext
// -> its slot loop, and the explore engine's sweep workers above them):
//
//  1. a function that accepts a context.Context must not start a new
//     root context (context.Background/TODO) in its body — pass the
//     parameter on, or cancellation silently stops at this frame;
//  2. a non-blank context.Context parameter must actually be used;
//     an ignored ctx is a cancellation leak wearing the API's
//     clothes (propagate it or rename it _);
//  3. an unconditional `for {}` loop inside a go-launched worker must
//     observe the in-scope context (select on ctx.Done() or check
//     ctx.Err()); otherwise the pool can spin on after the caller
//     gave up;
//  4. with a context in scope, a call to a context-less function F
//     whose package also exports FContext(ctx, ...) must use the
//     Context variant — F is the Background-calling compatibility
//     wrapper and severs cancellation.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc:  "functions accepting a context.Context must propagate it; worker loops must observe cancellation",
	Run:  runCtxFlow,
}

func runCtxFlow(pass *Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				w := &ctxWalker{pass: pass}
				w.enterFunc(fd.Type, fd.Body, nil)
			}
		}
	}
	return nil
}

// ctxWalker walks one top-level function, tracking which context
// parameters are lexically in scope (closures inherit the enclosing
// scope) and whether the walk is inside a go-launched worker literal.
type ctxWalker struct {
	pass *Pass
}

// enterFunc checks one function (declaration or literal) and recurses
// into its body with the merged context scope.
func (w *ctxWalker) enterFunc(ftyp *ast.FuncType, body *ast.BlockStmt, outer []types.Object) {
	own := contextParams(w.pass.TypesInfo, ftyp)
	for _, obj := range own {
		if !references(w.pass.TypesInfo, body, obj) {
			w.pass.Report(obj.Pos(), "context.Context parameter %s is never used: propagate it or rename it _", obj.Name())
		}
	}
	scope := append(append([]types.Object{}, outer...), own...)
	w.walk(body, scope, false)
}

// walk visits stmts/exprs under one function body. inWorker marks
// positions inside a go-launched function literal.
func (w *ctxWalker) walk(n ast.Node, scope []types.Object, inWorker bool) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			w.enterFunc(n.Type, n.Body, scope)
			return false
		case *ast.GoStmt:
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				for _, arg := range n.Call.Args {
					w.walk(arg, scope, inWorker)
				}
				own := contextParams(w.pass.TypesInfo, lit.Type)
				for _, obj := range own {
					if !references(w.pass.TypesInfo, lit.Body, obj) {
						w.pass.Report(obj.Pos(), "context.Context parameter %s is never used: propagate it or rename it _", obj.Name())
					}
				}
				w.walk(lit.Body, append(append([]types.Object{}, scope...), own...), true)
				return false
			}
		case *ast.ForStmt:
			if n.Cond == nil && inWorker && len(scope) > 0 && !referencesAny(w.pass.TypesInfo, n, scope) {
				w.pass.Report(n.Pos(), "infinite worker loop never observes the in-scope context; select on ctx.Done() or check ctx.Err() each iteration")
			}
		case *ast.CallExpr:
			if name, ok := calleeName(w.pass.TypesInfo, n); ok && len(scope) > 0 &&
				(name == "context.Background" || name == "context.TODO") {
				w.pass.Report(n.Pos(), "%s inside a function that already has a context: propagate the parameter instead of starting a new root", name)
			}
			if len(scope) > 0 {
				w.checkLostContext(n)
			}
		}
		return true
	})
}

// checkLostContext reports calls to a package-level function F from a
// context-bearing function when F's package also exports FContext
// taking a leading context.Context: calling the Background-wrapper
// variant silently severs cancellation.
func (w *ctxWalker) checkLostContext(call *ast.CallExpr) {
	var fn *types.Func
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ = w.pass.TypesInfo.ObjectOf(fun).(*types.Func)
	case *ast.SelectorExpr:
		fn, _ = w.pass.TypesInfo.ObjectOf(fun.Sel).(*types.Func)
	}
	if fn == nil || fn.Pkg() == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil || strings.HasSuffix(fn.Name(), "Context") {
		return
	}
	// The callee must not itself take a context (then it is already
	// context-aware and the ctxflow rules apply inside it).
	for i := 0; i < sig.Params().Len(); i++ {
		if isContextType(sig.Params().At(i).Type()) {
			return
		}
	}
	alt, ok := fn.Pkg().Scope().Lookup(fn.Name() + "Context").(*types.Func)
	if !ok {
		return
	}
	altSig := alt.Type().(*types.Signature)
	if altSig.Params().Len() > 0 && isContextType(altSig.Params().At(0).Type()) {
		w.pass.Report(call.Pos(), "%s.%s discards the in-scope context: call %sContext and propagate ctx",
			fn.Pkg().Name(), fn.Name(), fn.Name())
	}
}

// contextParams returns the objects of the named, non-blank
// context.Context parameters of ftyp.
func contextParams(info *types.Info, ftyp *ast.FuncType) []types.Object {
	var out []types.Object
	if ftyp.Params == nil {
		return nil
	}
	for _, field := range ftyp.Params.List {
		for _, name := range field.Names {
			if name.Name == "_" {
				continue
			}
			obj := info.ObjectOf(name)
			if obj != nil && isContextType(obj.Type()) {
				out = append(out, obj)
			}
		}
	}
	return out
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

func references(info *types.Info, n ast.Node, obj types.Object) bool {
	return referencesAny(info, n, []types.Object{obj})
}

func referencesAny(info *types.Info, n ast.Node, objs []types.Object) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil {
				for _, o := range objs {
					if o == obj {
						found = true
						return false
					}
				}
			}
		}
		return true
	})
	return found
}

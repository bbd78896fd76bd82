package analysis

import (
	"go/ast"
	"go/types"
)

// HTTPClose guards the fabric client and example paths against the
// classic HTTP-client leak: an *http.Response whose Body is never
// closed in the function that obtained it (and which does not escape
// to a caller or callee that could close it) — each one pins a
// connection, and under the fabric's retry/reroute traffic the pool
// starves. (A dropped context.CancelFunc, the other classic leak, is
// go vet's lostcancel check.)
//
// The escape analysis is deliberately coarse and errs quiet: a
// response that is returned, stored, or passed to any function is
// assumed closed elsewhere. The findings that remain are the ones
// with no possible closer.
var HTTPClose = &Analyzer{
	Name: "httpclose",
	Doc:  "flags http.Response bodies never closed in the obtaining function",
	Run:  runHTTPClose,
}

func runHTTPClose(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkHTTPCloseBody(pass, fn.Body)
				}
				return false // checkHTTPCloseBody descends, closures included
			}
			return true
		})
	}
	return nil
}

// checkHTTPCloseBody checks one function body. Closures are checked
// as part of the enclosing body: a response obtained in the closure
// and closed in the closure resolves naturally, and one smuggled
// across the closure boundary counts as an escape (the ident appears
// in a context the scanner treats as a use-beyond-Body).
func checkHTTPCloseBody(pass *Pass, body *ast.BlockStmt) {
	var resps []*respVar
	byObj := map[types.Object]*respVar{}

	// Pass 1: collect response-producing assignments.
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		// resp, err := <call> — the call's first result is *http.Response.
		if len(as.Rhs) == 1 {
			if call, ok := as.Rhs[0].(*ast.CallExpr); ok {
				rt := pass.TypesInfo.TypeOf(call)
				first := rt
				if tup, ok := rt.(*types.Tuple); ok && tup.Len() > 0 {
					first = tup.At(0).Type()
				}
				if isHTTPResponsePtr(first) && len(as.Lhs) > 0 {
					if id, ok := as.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
						if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
							rv := &respVar{obj: obj, pos: call}
							resps = append(resps, rv)
							byObj[obj] = rv
						}
					}
				}
			}
		}
		return true
	})

	if len(resps) == 0 {
		return
	}

	// Pass 2: for each response var, look for a closing use or an
	// escape.
	ast.Inspect(body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.CallExpr:
			// resp.Body.Close() (also via defer, which wraps the same
			// CallExpr).
			if sel, ok := e.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Close" {
				if inner, ok := sel.X.(*ast.SelectorExpr); ok && inner.Sel.Name == "Body" {
					if id, ok := ast.Unparen(inner.X).(*ast.Ident); ok {
						if rv := byObj[pass.TypesInfo.ObjectOf(id)]; rv != nil {
							rv.closed = true
						}
					}
				}
			}
			// resp passed to any function: assume the callee closes.
			for _, arg := range e.Args {
				markEscape(pass, byObj, arg)
			}
		case *ast.ReturnStmt:
			for _, r := range e.Results {
				markEscape(pass, byObj, r)
			}
		case *ast.AssignStmt:
			// resp re-assigned somewhere else (struct field, channel
			// send via variable, etc.): rhs idents escape.
			for _, r := range e.Rhs {
				if id, ok := ast.Unparen(r).(*ast.Ident); ok {
					markEscape(pass, byObj, id)
				}
			}
		case *ast.SendStmt:
			markEscape(pass, byObj, e.Value)
		}
		return true
	})

	for _, rv := range resps {
		if !rv.closed {
			pass.Report(rv.pos.Pos(), "http.Response body obtained here is never closed in this function (and the response does not escape); leaked bodies pin pooled connections — defer resp.Body.Close()")
		}
	}
}

// respVar tracks one *http.Response-producing assignment.
type respVar struct {
	obj    types.Object
	pos    ast.Expr // the producing call, for the report position
	closed bool
}

// markEscape marks a response variable as escaping when expr is (or
// roots at) its identifier.
func markEscape(pass *Pass, byObj map[types.Object]*respVar, expr ast.Expr) {
	if id, ok := ast.Unparen(expr).(*ast.Ident); ok {
		if rv := byObj[pass.TypesInfo.ObjectOf(id)]; rv != nil {
			rv.closed = true
		}
	}
}

func isHTTPResponsePtr(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := p.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "net/http" && obj.Name() == "Response"
}

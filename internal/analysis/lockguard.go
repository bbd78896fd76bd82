package analysis

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"
)

// LockGuard checks `// guarded by <mu>` field annotations: every
// access to an annotated struct field must happen in a function that
// has already locked the named mutex of the same base expression
// (x.mu.Lock() / x.mu.RLock() textually before the access, or
// x.Lock() when the mutex is an embedded sync.Mutex/RWMutex).
//
// The check is deliberately flow-insensitive — a function either
// takes the right lock before the access or it does not — which is
// exactly the discipline the memoized tech tables and the explore
// result cache rely on. A constructor sets guarded fields in the one
// composite literal that builds the value, which touches no field
// through a shared value, so it needs no lock.
var LockGuard = &Analyzer{
	Name: "lockguard",
	Doc:  "struct fields annotated `// guarded by <mu>` must only be accessed with that mutex held",
	Run:  runLockGuard,
}

var guardedByRE = regexp.MustCompile(`guarded by (\w+)`)

// guardInfo is one annotated field.
type guardInfo struct {
	mu       string // sibling mutex field name
	embedded bool   // mu is an embedded sync.Mutex/RWMutex (promoted Lock)
}

func runLockGuard(pass *Pass) error {
	guards := collectGuards(pass)
	if len(guards) == 0 {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkGuardedAccesses(pass, guards, fd.Body)
		}
	}
	return nil
}

// collectGuards finds every `// guarded by <mu>` annotation on a
// struct field and validates that the named mutex is a sibling field.
func collectGuards(pass *Pass) map[types.Object]guardInfo {
	guards := map[types.Object]guardInfo{}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok || st.Fields == nil {
				return true
			}
			for _, field := range st.Fields.List {
				mu := annotation(field)
				if mu == "" {
					continue
				}
				embedded, found := findMutexField(pass, st, mu)
				if !found {
					pass.Report(field.Pos(), "guarded by %s: no such sibling field", mu)
					continue
				}
				for _, name := range field.Names {
					if obj := pass.TypesInfo.Defs[name]; obj != nil {
						guards[obj] = guardInfo{mu: mu, embedded: embedded}
					}
				}
			}
			return true
		})
	}
	return guards
}

// annotation extracts the mutex name from the field's doc or trailing
// comment.
func annotation(field *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		if m := guardedByRE.FindStringSubmatch(cg.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}

// findMutexField reports whether the named sibling field exists
// (found) and whether it is an embedded sync.Mutex/RWMutex.
func findMutexField(pass *Pass, st *ast.StructType, mu string) (embedded, found bool) {
	for _, field := range st.Fields.List {
		for _, name := range field.Names {
			if name.Name == mu {
				return false, true
			}
		}
		if len(field.Names) == 0 {
			// Embedded: the implicit name is the type's base name.
			t := pass.TypesInfo.TypeOf(field.Type)
			if t == nil {
				continue
			}
			if named, ok := t.(*types.Named); ok && named.Obj().Name() == mu {
				return isSyncLocker(named), true
			}
		}
	}
	return false, false
}

func isSyncLocker(named *types.Named) bool {
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// checkGuardedAccesses reports selector accesses to guarded fields
// not preceded (textually, within the same function body) by a lock
// of the matching mutex on the same base expression.
func checkGuardedAccesses(pass *Pass, guards map[types.Object]guardInfo, body *ast.BlockStmt) {
	// lockCalls: printed receiver expression -> earliest Lock position.
	type lockCall struct {
		recv string
		pos  int
	}
	var locks []lockCall
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock" {
			return true
		}
		locks = append(locks, lockCall{recv: types.ExprString(sel.X), pos: int(call.Pos())})
		return true
	})

	lockedBefore := func(recv string, pos int) bool {
		for _, l := range locks {
			if l.recv == recv && l.pos < pos {
				return true
			}
		}
		return false
	}

	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.ObjectOf(sel.Sel)
		g, guarded := guards[obj]
		if !guarded {
			return true
		}
		base := types.ExprString(sel.X)
		ok = lockedBefore(base+"."+g.mu, int(sel.Pos()))
		if !ok && g.embedded {
			ok = lockedBefore(base, int(sel.Pos()))
		}
		if !ok {
			pass.Report(sel.Pos(), "%s is accessed without %s held (annotation: guarded by %s)",
				types.ExprString(sel), lockName(base, g), g.mu)
		}
		return true
	})
}

func lockName(base string, g guardInfo) string {
	if g.embedded {
		return base + ".Lock()"
	}
	return strings.Join([]string{base, g.mu}, ".") + ".Lock()"
}

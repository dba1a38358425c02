package analysis

import (
	"go/ast"
	"go/types"
)

// callGraph is the per-unit static call graph the interprocedural rules
// walk. Nodes are the unit's function declarations; edges are call sites
// whose callee go/types resolves to another declaration in the same unit.
// A call through an interface, a func value or another package has no
// edge: summaries then treat it as having no communication effects, which
// keeps the engine conservative rather than wrong.
type callGraph struct {
	info *types.Info
	// decl maps each declared function and method to its declaration.
	decl map[*types.Func]*ast.FuncDecl
	// callers maps a declaration to the set of declarations that call it
	// (calls made inside function literals count for the enclosing decl).
	callers map[*ast.FuncDecl]map[*ast.FuncDecl]bool
	// decls lists every function declaration with a body, in file order.
	decls []*ast.FuncDecl
}

// buildCallGraph indexes the unit's declarations and call edges.
func buildCallGraph(u *Unit) *callGraph {
	cg := &callGraph{
		info:    u.info,
		decl:    map[*types.Func]*ast.FuncDecl{},
		callers: map[*ast.FuncDecl]map[*ast.FuncDecl]bool{},
	}
	for _, f := range u.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			cg.decls = append(cg.decls, fd)
			if fn, ok := u.info.Defs[fd.Name].(*types.Func); ok {
				cg.decl[fn] = fd
			}
		}
	}
	for _, fd := range cg.decls {
		caller := fd
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if callee := cg.resolve(call); callee != nil {
				if cg.callers[callee] == nil {
					cg.callers[callee] = map[*ast.FuncDecl]bool{}
				}
				cg.callers[callee][caller] = true
			}
			return true
		})
	}
	return cg
}

// resolve returns the unit-local declaration a call targets, or nil. The
// fixture stubs declare the communication vocabulary itself, so a Send
// can resolve to its stub; the summary builder classifies the effect
// before consulting the graph, so stubs do not swallow effects.
func (cg *callGraph) resolve(call *ast.CallExpr) *ast.FuncDecl {
	var id *ast.Ident
	switch fun := unwrapCallFun(call).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	if fn, ok := cg.info.Uses[id].(*types.Func); ok {
		return cg.decl[fn.Origin()]
	}
	return nil
}

// roots returns the declarations no other declaration in the unit calls —
// the entry points interprocedural package-wide analyses enumerate effects
// from — plus any declaration unreachable from those (mutually recursive
// orphan groups), so every declared effect is visible exactly once with
// the deepest available bindings.
func (cg *callGraph) roots() []*ast.FuncDecl {
	var roots []*ast.FuncDecl
	reached := map[*ast.FuncDecl]bool{}
	var mark func(fd *ast.FuncDecl)
	calls := map[*ast.FuncDecl][]*ast.FuncDecl{}
	for callee, cs := range cg.callers {
		for caller := range cs {
			calls[caller] = append(calls[caller], callee)
		}
	}
	mark = func(fd *ast.FuncDecl) {
		if reached[fd] {
			return
		}
		reached[fd] = true
		for _, callee := range calls[fd] {
			mark(callee)
		}
	}
	for _, fd := range cg.decls {
		if len(cg.callers[fd]) == 0 {
			roots = append(roots, fd)
			mark(fd)
		}
	}
	for _, fd := range cg.decls {
		if !reached[fd] {
			roots = append(roots, fd)
			mark(fd)
		}
	}
	return roots
}

package analysis

import (
	"go/ast"
	"go/token"
)

// This file builds per-function mutation summaries: the set of parameters
// (including the receiver) a function may write through — element or
// field stores, copy, clear or append into the backing array, or handing
// the parameter to another unit-local function that does any of the above.
// The ownership rule consults these at call sites so a buffer that is
// mutated three helpers away from its Send is still caught.

// mutWrite describes one way a function writes through a parameter.
type mutWrite struct {
	pos  token.Pos
	path []string // call chain below this function ("" for direct writes)
}

// mutAnalyzer memoizes mutation summaries over the unit's call graph.
type mutAnalyzer struct {
	u        *Unit
	cg       *callGraph
	cache    map[*ast.FuncDecl]map[string]mutWrite
	building map[*ast.FuncDecl]bool
}

// mutations returns (building if needed) the unit's mutation analyzer.
// It shares the summarizer's call graph so both interprocedural engines
// agree on resolution.
func (u *Unit) mutations() *mutAnalyzer {
	if u.muts == nil {
		u.muts = &mutAnalyzer{
			u:        u,
			cg:       u.summaries().cg,
			cache:    map[*ast.FuncDecl]map[string]mutWrite{},
			building: map[*ast.FuncDecl]bool{},
		}
	}
	return u.muts
}

// mutatedParams returns the parameter/receiver names fd may write
// through. Recursion is cut at the back-edge (a recursive call
// contributes nothing new — its direct writes are already collected).
func (m *mutAnalyzer) mutatedParams(fd *ast.FuncDecl) map[string]mutWrite {
	if w, ok := m.cache[fd]; ok {
		return w
	}
	if m.building[fd] {
		return nil
	}
	m.building[fd] = true
	writes := map[string]mutWrite{}
	params := paramSet(fd)
	// alias maps locals introduced by `x := p` / `x := p[a:b]` back to the
	// parameter they view.
	alias := map[string]string{}
	toParam := func(e ast.Expr) (string, bool) {
		base, ok := baseIdent(e)
		if !ok {
			return "", false
		}
		if p, ok := alias[base]; ok {
			return p, true
		}
		if params[base] {
			return base, true
		}
		return "", false
	}
	record := func(e ast.Expr, pos token.Pos, path []string) {
		if p, ok := toParam(e); ok {
			if _, dup := writes[p]; !dup {
				writes[p] = mutWrite{pos: pos, path: path}
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range x.Lhs {
				switch l := lhs.(type) {
				case *ast.Ident:
					if x.Tok == token.DEFINE && i < len(x.Rhs) {
						// x := p or x := p[a:b] aliases the parameter.
						if p, ok := toParam(stripSliceIndex(x.Rhs[i])); ok {
							alias[l.Name] = p
						}
					}
					// p = append(p, ...) grows through the caller's array
					// when capacity allows — a write the caller can see.
					if params[l.Name] && i < len(x.Rhs) && isAppendOf(x.Rhs[i], l.Name) {
						record(l, x.Pos(), nil)
					}
				case *ast.IndexExpr, *ast.StarExpr, *ast.SelectorExpr:
					record(l, x.Pos(), nil)
				}
			}
		case *ast.IncDecStmt:
			switch x.X.(type) {
			case *ast.IndexExpr, *ast.StarExpr, *ast.SelectorExpr:
				record(x.X, x.Pos(), nil)
			}
		case *ast.CallExpr:
			// copy(p, …) and clear(p) write p's elements.
			if name, ok := callFunIdent(x); ok && (name == "copy" && len(x.Args) == 2 || name == "clear" && len(x.Args) == 1) {
				record(x.Args[0], x.Pos(), nil)
				return true
			}
			// A communication call is an effect, not a mutation edge.
			if _, isOp := m.u.commOp(x); isOp {
				return true
			}
			callee := m.cg.resolve(x)
			if callee == nil || callee == fd {
				return true
			}
			sub := m.mutatedParams(callee)
			if len(sub) == 0 {
				return true
			}
			for idx, pname := range orderedParams(callee) {
				w, writesIt := sub[pname]
				if !writesIt {
					continue
				}
				if arg, ok := callArg(x, callee, idx); ok {
					record(arg, x.Pos(), append([]string{callee.Name.Name}, w.path...))
				}
			}
		}
		return true
	})
	delete(m.building, fd)
	m.cache[fd] = writes
	return writes
}

// orderedParams lists a declaration's receiver (first, when present) and
// parameter names in positional order.
func orderedParams(fd *ast.FuncDecl) []string {
	var out []string
	if fd.Recv != nil && len(fd.Recv.List) > 0 && len(fd.Recv.List[0].Names) > 0 {
		out = append(out, fd.Recv.List[0].Names[0].Name)
	}
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			out = append(out, name.Name)
		}
	}
	return out
}

// callArg maps a position in orderedParams(callee) to the corresponding
// argument expression at this call site (the receiver maps to the
// selector base of a method call).
func callArg(call *ast.CallExpr, callee *ast.FuncDecl, idx int) (ast.Expr, bool) {
	if callee.Recv != nil && len(callee.Recv.List) > 0 && len(callee.Recv.List[0].Names) > 0 {
		if idx == 0 {
			if sel, ok := unwrapCallFun(call).(*ast.SelectorExpr); ok {
				return sel.X, true
			}
			return nil, false
		}
		idx--
	}
	if idx < len(call.Args) {
		return call.Args[idx], true
	}
	return nil, false
}

// baseIdent walks index/slice/star/selector/paren chains down to the
// root identifier: buf[i], *p, g.Cells[0], (xs)[1:] all root at their
// leftmost name.
func baseIdent(e ast.Expr) (string, bool) {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x.Name, true
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				e = x.X
				continue
			}
			return "", false
		default:
			return "", false
		}
	}
}

// stripSliceIndex unwraps one level of slicing/indexing so `p[2:6]` and
// `p[i]` alias p for mutation purposes.
func stripSliceIndex(e ast.Expr) ast.Expr {
	switch x := e.(type) {
	case *ast.SliceExpr:
		return x.X
	case *ast.IndexExpr:
		return x.X
	case *ast.ParenExpr:
		return stripSliceIndex(x.X)
	}
	return e
}

// isAppendOf reports whether e is `append(name, ...)`.
func isAppendOf(e ast.Expr, name string) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	fn, ok := callFunIdent(call)
	if !ok || fn != "append" || len(call.Args) == 0 {
		return false
	}
	id, ok := call.Args[0].(*ast.Ident)
	return ok && id.Name == name
}

// callFunIdent returns the bare identifier a call invokes, if any.
func callFunIdent(call *ast.CallExpr) (string, bool) {
	if id, ok := unwrapCallFun(call).(*ast.Ident); ok {
		return id.Name, true
	}
	return "", false
}

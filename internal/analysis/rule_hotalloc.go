package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// The hotalloc rule flags allocations made on every iteration of a loop
// whose value flows into a communication payload inside that same loop:
// a fresh `make`, a growing `append`, a reference-typed composite
// literal, an explicit interface boxing at the payload argument, or an
// allocation a helper returns. Per-iteration payload allocation is the
// dominant allocs/op term on the hot collectives (ROADMAP item 4) — the
// buffer can almost always be hoisted out of the loop and reset per
// iteration (heapk.Reset-style) or kept once per world.
//
// Interprocedural on both ends via the shared machinery: an allocation
// can reach the wire through a helper (the callee's Effect.Payload fact
// names the parameter it forwards into a send), and the allocation
// itself can happen inside a helper (a callee whose returns are fresh
// allocations).
//
// Escape hatch, by design: an allocation guarded by a condition on the
// same variable (`if buf == nil`, `if cap(buf) < n`) is a lazy-init /
// ensure-capacity pattern that rebinds once and then reuses — never
// reported. Composite literals passed directly as a payload argument
// (message construction: `Send(c, dst, tag, result{id, v})`) are not
// allocations the caller could hoist, and are not reported either.

func checkHotAlloc(u *Unit, r *reporter) {
	sums := u.summaries()
	funcBodies(u, func(name string, body *ast.BlockStmt) {
		h := &hotAllocScan{u: u, r: r, cg: sums.cg, seen: map[token.Pos]bool{}}
		ast.Inspect(body, func(n ast.Node) bool {
			switch l := n.(type) {
			case *ast.FuncLit:
				return false // literal bodies are scanned as their own scope
			case *ast.ForStmt:
				h.loop(l.Body)
			case *ast.RangeStmt:
				h.loop(l.Body)
			}
			return true
		})
	})
}

// allocSite is one per-iteration allocation bound to a variable.
type allocSite struct {
	pos  token.Pos
	kind string // "make", "growing append", "composite literal", "helper f"
}

type hotAllocScan struct {
	u    *Unit
	r    *reporter
	cg   *callGraph
	seen map[token.Pos]bool // dedup across nested-loop rescans
}

// loop checks one loop body: collect the variables allocated inside it,
// then every payload use inside it, and report each allocation whose
// variable reaches a payload.
func (h *hotAllocScan) loop(body *ast.BlockStmt) {
	allocs := map[string][]allocSite{}
	h.collectAllocs(body.List, nil, allocs)
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if op, ok := h.u.commOp(call); ok && op.payload != nil {
			h.payloadUse(op.payload, op.name, "", allocs)
			return true
		}
		callee := h.cg.resolve(call)
		if callee == nil {
			return true
		}
		facts := h.u.payloadFacts(callee)
		if len(facts) == 0 {
			return true
		}
		for idx, pname := range orderedParams(callee) {
			fact, sent := facts[pname]
			if !sent {
				continue
			}
			if arg, ok := callArg(call, callee, idx); ok && arg != nil {
				h.payloadUse(arg, fact.op, callee.Name.Name, allocs)
			}
		}
		return true
	})
}

// payloadUse matches one payload argument against the loop's allocation
// sites; via names the helper the payload travels through ("" direct).
func (h *hotAllocScan) payloadUse(arg ast.Expr, op, via string, allocs map[string][]allocSite) {
	useLine := h.u.Fset.Position(arg.Pos()).Line
	// Explicit interface boxing at the payload argument allocates on
	// every iteration even when the boxed value does not.
	if conv, ok := stripParens(arg).(*ast.CallExpr); ok {
		if id, isID := conv.Fun.(*ast.Ident); isID && id.Name == "any" && !h.seen[conv.Pos()] {
			h.seen[conv.Pos()] = true
			h.r.report("hotalloc", conv.Pos(),
				"value is boxed into an interface on every iteration of this loop before entering the %s payload; hoist a reusable boxed value (or send the concrete type) to cut allocs/op", op)
		}
	}
	name, ok := baseIdent(arg)
	if !ok {
		return
	}
	through := ""
	if via != "" {
		through = " via " + via
	}
	for _, site := range allocs[name] {
		if h.seen[site.pos] {
			continue
		}
		h.seen[site.pos] = true
		h.r.report("hotalloc", site.pos,
			"%q is allocated (%s) on every iteration of this loop and flows into the %s payload%s at line %d; hoist the buffer out of the loop and reset it per iteration (heapk.Reset-style), or keep one buffer per world, to cut allocs/op",
			name, site.kind, op, through, useLine)
	}
}

// collectAllocs walks the loop body's statements recording per-iteration
// allocations bound to plain identifiers. guards carries the conditions
// of enclosing if-statements: an allocation guarded by a condition on
// its own variable is the rebind-once pattern and is skipped.
func (h *hotAllocScan) collectAllocs(list []ast.Stmt, guards []ast.Expr, allocs map[string][]allocSite) {
	for _, s := range list {
		switch x := s.(type) {
		case *ast.AssignStmt:
			h.allocAssign(x, guards, allocs)
		case *ast.DeclStmt:
			if gd, ok := x.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for i, nm := range vs.Names {
						if i < len(vs.Values) {
							h.recordAlloc(nm.Name, vs.Values[i], vs.Values[i].Pos(), guards, allocs)
						}
					}
				}
			}
		case *ast.IfStmt:
			g := append(guards, x.Cond)
			h.collectAllocs(x.Body.List, g, allocs)
			if x.Else != nil {
				h.collectAllocs([]ast.Stmt{x.Else}, g, allocs)
			}
		case *ast.BlockStmt:
			h.collectAllocs(x.List, guards, allocs)
		case *ast.ForStmt:
			h.collectAllocs(x.Body.List, guards, allocs)
		case *ast.RangeStmt:
			h.collectAllocs(x.Body.List, guards, allocs)
		case *ast.SwitchStmt:
			h.caseAllocs(x.Body, guards, allocs)
		case *ast.TypeSwitchStmt:
			h.caseAllocs(x.Body, guards, allocs)
		case *ast.SelectStmt:
			h.caseAllocs(x.Body, guards, allocs)
		case *ast.LabeledStmt:
			h.collectAllocs([]ast.Stmt{x.Stmt}, guards, allocs)
		}
	}
}

func (h *hotAllocScan) caseAllocs(body *ast.BlockStmt, guards []ast.Expr, allocs map[string][]allocSite) {
	for _, c := range body.List {
		switch cc := c.(type) {
		case *ast.CaseClause:
			h.collectAllocs(cc.Body, guards, allocs)
		case *ast.CommClause:
			h.collectAllocs(cc.Body, guards, allocs)
		}
	}
}

func (h *hotAllocScan) allocAssign(x *ast.AssignStmt, guards []ast.Expr, allocs map[string][]allocSite) {
	for i, lhs := range x.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		var rhs ast.Expr
		if len(x.Rhs) == 1 {
			rhs = x.Rhs[0]
		} else if i < len(x.Rhs) {
			rhs = x.Rhs[i]
		}
		if rhs != nil {
			h.recordAlloc(id.Name, rhs, x.Pos(), guards, allocs)
		}
	}
}

// recordAlloc classifies one right-hand side as a per-iteration
// allocation of name, applying the guarded-rebind escape hatch.
func (h *hotAllocScan) recordAlloc(name string, rhs ast.Expr, pos token.Pos, guards []ast.Expr, allocs map[string][]allocSite) {
	kind, ok := h.allocKind(name, rhs)
	if !ok {
		return
	}
	for _, g := range guards {
		if mentionsIdent(g, name) {
			return // `if buf == nil` / `if cap(buf) < n` — rebinds once
		}
	}
	allocs[name] = append(allocs[name], allocSite{pos: pos, kind: kind})
}

func (h *hotAllocScan) allocKind(name string, rhs ast.Expr) (string, bool) {
	switch v := stripParens(rhs).(type) {
	case *ast.CompositeLit:
		if h.refLiteral(rhs) {
			return "composite literal", true
		}
	case *ast.UnaryExpr:
		if v.Op == token.AND {
			if _, isLit := v.X.(*ast.CompositeLit); isLit {
				return "composite literal", true
			}
		}
	case *ast.CallExpr:
		if fn, ok := callFunIdent(v); ok {
			switch fn {
			case "make":
				return "make", true
			case "append":
				// Growing append: the destination is the bare variable
				// itself. `append(buf[:0], ...)` is the reuse idiom and
				// `append(other, ...)` a copy-build — neither reported.
				if len(v.Args) > 0 {
					if dst, isID := stripParens(v.Args[0]).(*ast.Ident); isID && dst.Name == name {
						return "growing append", true
					}
				}
				return "", false
			}
		}
		if callee := h.cg.resolve(v); callee != nil && helperAllocates(callee) {
			return "helper " + callee.Name.Name, true
		}
	}
	return "", false
}

// refLiteral reports whether a composite literal has reference semantics
// (slice or map) — a struct literal assigned to a variable is a value
// and allocates nothing by itself.
func (h *hotAllocScan) refLiteral(x ast.Expr) bool {
	lit, ok := stripParens(x).(*ast.CompositeLit)
	if !ok {
		return false
	}
	switch lit.Type.(type) {
	case *ast.ArrayType, *ast.MapType:
		return true
	}
	if t := h.u.info.TypeOf(lit); t != nil {
		switch t.Underlying().(type) {
		case *types.Slice, *types.Map:
			return true
		}
	}
	return false
}

// helperAllocates reports whether every value the callee can return is
// born inside it: each return statement hands back a fresh make,
// composite literal or address-of-literal. Such a call inside a loop is
// an allocation at the call site.
func helperAllocates(fd *ast.FuncDecl) bool {
	if fd.Body == nil || fd.Type.Results == nil || len(fd.Type.Results.List) == 0 {
		return false
	}
	returns, fresh := 0, 0
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || len(ret.Results) == 0 {
			return true
		}
		returns++
		switch v := stripParens(ret.Results[0]).(type) {
		case *ast.CompositeLit:
			fresh++
		case *ast.UnaryExpr:
			if v.Op == token.AND {
				if _, isLit := v.X.(*ast.CompositeLit); isLit {
					fresh++
				}
			}
		case *ast.CallExpr:
			if fn, ok := callFunIdent(v); ok && (fn == "make" || fn == "append") {
				fresh++
			}
		}
		return true
	})
	return returns > 0 && returns == fresh
}

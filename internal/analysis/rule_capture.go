package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// checkCapture flags writes to captured outer state inside SPMD closures
// (World.Run rank bodies, par pool workers, locale bodies, raw goroutine
// literals). Such closures execute once per rank/worker concurrently, so
// an unsynchronized write to shared state is a data race — the
// shared-memory leak that breaks the "each rank owns its state" model.
//
// Three idioms are recognized as safe and not reported:
//
//   - rank-guarded single writer: the write sits in the then-arm of
//     `if c.Rank() == k` (or the else-arm of `!=`), so exactly one rank
//     executes it and World.Run's join publishes it;
//   - rank-indexed slots: `out[i] = v` where the index is derived from
//     the rank (directly or through BlockRange-style arithmetic), so
//     ranks write disjoint elements;
//   - explicitly locked closures: a closure that takes a mutex is assumed
//     to have arranged its own synchronization.
func checkCapture(u *Unit, r *reporter) {
	for _, nodes := range u.fileNodes() {
		for _, n := range nodes {
			switch x := n.(type) {
			case *ast.CallExpr:
				switch callName(x) {
				case "Run":
					// World.Run(func(c *cluster.Comm)): require the
					// rank-body type so unrelated Run methods (testing.T,
					// exhibits) are not caught.
					for _, a := range x.Args {
						if lit, ok := a.(*ast.FuncLit); ok && u.isRankBody(lit) {
							analyzeClosure(u, r, lit, "World.Run rank body", false)
						}
					}
				case "For", "ForRange", "OnEach":
					// Worker closures: the parameters (iteration index,
					// subrange bounds, worker id, locale) partition the
					// work, so parameter-derived indexes are race-free.
					for _, a := range x.Args {
						if lit, ok := a.(*ast.FuncLit); ok {
							label := "pool-worker closure"
							if callName(x) == "OnEach" {
								label = "locale body"
							}
							analyzeClosure(u, r, lit, label, true)
						}
					}
				case "Do":
					// par.Do runs each section once, concurrently with its
					// siblings: a write races only when two sections touch
					// the same captured target. sync.Once.Do and friends
					// must not match, hence the typed check.
					if u.isParDo(x) {
						analyzeDoSections(u, r, x)
					}
				}
			case *ast.GoStmt:
				if lit, ok := x.Call.Fun.(*ast.FuncLit); ok {
					analyzeClosure(u, r, lit, "go statement", true)
				}
			}
		}
	}
}

// parDoType is par.Do's type, func(...func()).
var parDoType = types.NewSignatureType(nil, nil, nil,
	types.NewTuple(types.NewParam(token.NoPos, nil, "", types.NewSlice(types.NewSignatureType(nil, nil, nil, nil, nil, false)))),
	nil, true)

// isParDo reports whether the call is par.Do: a call of a package-level
// function of type func(...func()), as opposed to sync.Once.Do, a Do
// method, or a function of another shape.
func (u *Unit) isParDo(call *ast.CallExpr) bool {
	var id *ast.Ident
	switch fun := unwrapCallFun(call).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	}
	fn, ok := u.info.Uses[id].(*types.Func)
	return ok && fn.Pkg() != nil && fn.Parent() == fn.Pkg().Scope() && types.Identical(fn.Type(), parDoType)
}

// isRankBody reports whether lit is a rank body: a literal of one
// parameter whose type isCommType accepts, such as func(c *cluster.Comm).
func (u *Unit) isRankBody(lit *ast.FuncLit) bool {
	sig, ok := u.info.TypeOf(lit).(*types.Signature)
	return ok && sig.Params().Len() == 1 && isCommType(sig.Params().At(0).Type())
}

// analyzeClosure reports unguarded writes to captured state inside lit.
// taintParams marks the closure's own parameters as work-partitioning
// values (safe to index shared slices with).
func analyzeClosure(u *Unit, r *reporter, lit *ast.FuncLit, label string, taintParams bool) {
	if closureTakesLock(lit) {
		return
	}
	var seed []string
	if taintParams && lit.Type.Params != nil {
		for _, field := range lit.Type.Params.List {
			for _, name := range field.Names {
				seed = append(seed, name.Name)
			}
		}
	}
	tainted := rankTaint(u, lit, seed)

	isTaintedIndex := func(idx ast.Expr) bool {
		safe := false
		ast.Inspect(idx, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				if _, isRank := u.isRankExpr(e); isRank {
					safe = true
				}
			}
			if id, ok := n.(*ast.Ident); ok && tainted[id.Name] {
				safe = true
			}
			return !safe
		})
		return safe
	}

	checkWrite := func(lhs ast.Expr, pos token.Pos, guarded bool) {
		if guarded {
			return
		}
		switch x := lhs.(type) {
		case *ast.Ident:
			if capturedBy(u, lit, x) {
				r.report("capture", pos,
					"write to captured variable %q inside %s: every rank/worker runs this concurrently — rank-guard it or give each rank its own slot", x.Name, label)
			}
		case *ast.IndexExpr:
			base, ok := x.X.(*ast.Ident)
			if !ok || !capturedBy(u, lit, base) {
				return
			}
			if tv, ok := u.info.Types[x.X]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					r.report("capture", pos,
						"write to captured map %q inside %s: concurrent map writes fault even on distinct keys — rank-guard it or merge after the join", base.Name, label)
					return
				}
			}
			if !isTaintedIndex(x.Index) {
				r.report("capture", pos,
					"write to captured slice %q at a rank-independent index inside %s: ranks/workers may collide on the same element — index by rank or rank-guard it", base.Name, label)
			}
		case *ast.SelectorExpr:
			if base, ok := x.X.(*ast.Ident); ok && capturedBy(u, lit, base) {
				r.report("capture", pos,
					"write to field %s.%s of captured variable inside %s: every rank/worker runs this concurrently — rank-guard it", base.Name, x.Sel.Name, label)
			}
		case *ast.StarExpr:
			if base, ok := x.X.(*ast.Ident); ok && capturedBy(u, lit, base) {
				r.report("capture", pos,
					"write through captured pointer %q inside %s: every rank/worker runs this concurrently — rank-guard it", base.Name, label)
			}
		}
	}

	var walkStmt func(s ast.Stmt, guarded bool)
	walkBlock := func(b *ast.BlockStmt, guarded bool) {
		if b == nil {
			return
		}
		for _, s := range b.List {
			walkStmt(s, guarded)
		}
	}

	walkStmt = func(s ast.Stmt, guarded bool) {
		switch x := s.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && x.Tok == token.DEFINE && !capturedBy(u, lit, id) {
					continue // declared, or redeclared, inside the closure
				}
				checkWrite(lhs, x.Pos(), guarded)
			}
		case *ast.IncDecStmt:
			checkWrite(x.X, x.Pos(), guarded)
		case *ast.IfStmt:
			if x.Init != nil {
				walkStmt(x.Init, guarded)
			}
			thenGuard, elseGuard := branchGuards(u, x.Cond)
			walkBlock(x.Body, guarded || thenGuard)
			switch e := x.Else.(type) {
			case *ast.BlockStmt:
				walkBlock(e, guarded || elseGuard)
			case *ast.IfStmt:
				walkStmt(e, guarded)
			}
		case *ast.BlockStmt:
			walkBlock(x, guarded)
		case *ast.ForStmt:
			if x.Init != nil {
				walkStmt(x.Init, guarded)
			}
			if x.Post != nil {
				walkStmt(x.Post, guarded)
			}
			walkBlock(x.Body, guarded)
		case *ast.RangeStmt:
			if x.Tok == token.ASSIGN {
				if x.Key != nil {
					checkWrite(x.Key, x.Pos(), guarded)
				}
				if x.Value != nil {
					checkWrite(x.Value, x.Pos(), guarded)
				}
			}
			walkBlock(x.Body, guarded)
		case *ast.SwitchStmt:
			if x.Init != nil {
				walkStmt(x.Init, guarded)
			}
			for _, c := range x.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					for _, s := range cc.Body {
						walkStmt(s, guarded)
					}
				}
			}
		case *ast.TypeSwitchStmt:
			for _, c := range x.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					for _, s := range cc.Body {
						walkStmt(s, guarded)
					}
				}
			}
		case *ast.SelectStmt:
			for _, c := range x.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					for _, s := range cc.Body {
						walkStmt(s, guarded)
					}
				}
			}
		case *ast.LabeledStmt:
			walkStmt(x.Stmt, guarded)
		case *ast.DeferStmt, *ast.GoStmt, *ast.ExprStmt, *ast.ReturnStmt,
			*ast.SendStmt, *ast.DeclStmt, *ast.BranchStmt, *ast.EmptyStmt:
			// No direct captured-write shapes to check (nested function
			// literals are analyzed on their own when SPMD-spawned).
		}
	}
	walkBlock(lit.Body, false)
}

// capturedBy reports whether id names a variable lit captures: one that
// go/types resolves to an object declared outside lit. A name it could
// not resolve, a universe name and another package's object all count as
// captured; the blank identifier never does.
func capturedBy(u *Unit, lit *ast.FuncLit, id *ast.Ident) bool {
	if id.Name == "_" {
		return false
	}
	obj := u.info.ObjectOf(id)
	return obj == nil || obj.Pkg() != u.typesPkg || obj.Pos() < lit.Pos() || obj.Pos() >= lit.End()
}

// branchGuards reports whether the then/else arm of an if with this
// condition is executed by exactly one rank. `rank == k && extra` still
// guards the then-arm; any `||` voids the guarantee.
func branchGuards(u *Unit, cond ast.Expr) (thenGuard, elseGuard bool) {
	hasOr := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if b, ok := n.(*ast.BinaryExpr); ok && b.Op == token.LOR {
			hasOr = true
		}
		return true
	})
	if hasOr {
		return false, false
	}
	for _, cmp := range u.rankCond(cond) {
		switch cmp.op {
		case token.EQL:
			thenGuard = true
		case token.NEQ:
			elseGuard = true
		}
	}
	return thenGuard, elseGuard
}

// closureTakesLock reports whether the closure calls a Lock/RLock method —
// taken as evidence the author synchronized shared access deliberately.
func closureTakesLock(lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if sel.Sel.Name == "Lock" || sel.Sel.Name == "RLock" {
				found = true
			}
		}
		return !found
	})
	return found
}

// rankTaint computes the set of identifier names inside lit whose values
// derive from the rank (or from the given seed names): seeded by
// expressions mentioning Rank()/rank and propagated through assignments
// and range statements to a fixpoint.
func rankTaint(u *Unit, lit *ast.FuncLit, seed []string) map[string]bool {
	tainted := map[string]bool{}
	for _, s := range seed {
		if s != "_" {
			tainted[s] = true
		}
	}
	mentionsTaint := func(e ast.Expr) bool {
		hit := false
		ast.Inspect(e, func(n ast.Node) bool {
			if expr, ok := n.(ast.Expr); ok {
				if _, isRank := u.isRankExpr(expr); isRank {
					hit = true
				}
			}
			if id, ok := n.(*ast.Ident); ok && tainted[id.Name] {
				hit = true
			}
			return !hit
		})
		return hit
	}
	markLHS := func(lhs ast.Expr) {
		if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
			tainted[id.Name] = true
		}
	}
	for pass := 0; pass < 4; pass++ {
		before := len(tainted)
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt:
				anyTaint := false
				for _, rhs := range x.Rhs {
					if mentionsTaint(rhs) {
						anyTaint = true
					}
				}
				if anyTaint {
					for _, lhs := range x.Lhs {
						markLHS(lhs)
					}
				}
			case *ast.RangeStmt:
				if mentionsTaint(x.X) {
					if x.Key != nil {
						markLHS(x.Key)
					}
					if x.Value != nil {
						markLHS(x.Value)
					}
				}
			}
			return true
		})
		if len(tainted) == before {
			break
		}
	}
	return tainted
}

// analyzeDoSections checks a par.Do call: each section closure runs
// exactly once, so a captured write is a race only when two different
// sections write the same target (variable, field, pointee, or map).
// Writing disjoint fields of one struct from sibling sections — the
// kd-tree's n.left / n.right build — is fine.
func analyzeDoSections(u *Unit, r *reporter, call *ast.CallExpr) {
	type site struct {
		section int
		pos     token.Pos
	}
	writes := map[string][]site{}

	section := 0
	for _, a := range call.Args {
		lit, ok := a.(*ast.FuncLit)
		if !ok {
			continue
		}
		if closureTakesLock(lit) {
			section++
			continue
		}
		record := func(lhs ast.Expr, pos token.Pos) {
			switch x := lhs.(type) {
			case *ast.Ident:
				if capturedBy(u, lit, x) {
					writes["var "+x.Name] = append(writes["var "+x.Name], site{section, pos})
				}
			case *ast.SelectorExpr:
				if base, ok := x.X.(*ast.Ident); ok && capturedBy(u, lit, base) {
					key := "field " + base.Name + "." + x.Sel.Name
					writes[key] = append(writes[key], site{section, pos})
				}
			case *ast.IndexExpr:
				if base, ok := x.X.(*ast.Ident); ok && capturedBy(u, lit, base) {
					key := "element of " + base.Name
					writes[key] = append(writes[key], site{section, pos})
				}
			case *ast.StarExpr:
				if base, ok := x.X.(*ast.Ident); ok && capturedBy(u, lit, base) {
					key := "pointee of " + base.Name
					writes[key] = append(writes[key], site{section, pos})
				}
			}
		}
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncLit:
				return false // nested literals are their own scope
			case *ast.AssignStmt:
				for _, lhs := range x.Lhs {
					if id, ok := lhs.(*ast.Ident); ok && x.Tok == token.DEFINE && !capturedBy(u, lit, id) {
						continue // declared, or redeclared, inside the section
					}
					record(lhs, x.Pos())
				}
			case *ast.IncDecStmt:
				record(x.X, x.Pos())
			}
			return true
		})
		section++
	}

	// Two keys can report at one position (`a, b = 3, 4`), and Analyze's
	// sort keeps no order among equal positions, so report in key order.
	keys := make([]string, 0, len(writes))
	for key := range writes {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		sites := writes[key]
		first := sites[0].section
		for _, s := range sites[1:] {
			if s.section != first {
				r.report("capture", s.pos,
					"par.Do sections both write captured %s: sections run concurrently — give each section its own target or merge after Do", key)
				break
			}
		}
	}
}

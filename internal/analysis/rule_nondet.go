package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The nondet rule tracks the three sources that break cross-run
// reproducibility — map iteration order, unseeded math/rand, and
// wall-clock time — into the places where nondeterminism becomes
// observable: a wire payload, a reduction operand, or an obs
// span/instant field (the byte-identical Chrome-trace goldens of the
// obs layer only hold if nothing nondeterministic reaches a trace).
//
// Taint discipline, tuned against this repository:
//
//   - Ranging over a map taints the key/value variables and anything
//     *sequenced* from them: appends into a slice, float accumulation
//     (floating-point addition is not associative, so summation order
//     changes the result). Integer accumulation over a map range is
//     order-independent and stays clean, as do stores back into the
//     ranged map itself (the per-key rewrite pattern).
//   - Wall-clock (`time.Now`, `time.Since`) and math/rand values taint
//     any arithmetic or composite built from them.
//
// Safe by contract, never tainted: internal/prng (explicitly seeded,
// rank-splittable), Recorder.Now (the obs wall clock whose values the
// exporters normalize), and the communicator's simulated Clock.
//
// Sinks are interprocedural through the shared Effect.Payload facts: a
// tainted value handed to a helper that forwards the parameter into a
// send or collective is reported at the call site.

func checkNondet(u *Unit, r *reporter) {
	sums := u.summaries()
	funcBodies(u, func(name string, body *ast.BlockStmt) {
		s := &nondetScan{
			u: u, r: r, cg: sums.cg,
			taint:    map[string]taintInfo{},
			reported: map[token.Pos]bool{},
		}
		s.stmts(body.List)
	})
}

// taintInfo records why a variable is nondeterministic.
type taintInfo struct {
	src string // "map iteration order", "wall-clock time", "unseeded math/rand"
	pos token.Pos
}

type nondetScan struct {
	u         *Unit
	r         *reporter
	cg        *callGraph
	taint     map[string]taintInfo
	reported  map[token.Pos]bool
	rangeBase []string // base idents of maps currently being ranged over
}

// obsSinkMethods are the Recorder calls whose arguments land in exported
// trace events.
var obsSinkMethods = map[string]bool{
	"Span": true, "PhaseSpan": true, "WallSpan": true, "Instant": true,
}

// nondetSafeObs are obs entry points that take wall-clock-derived values
// by contract: WireSpan and Hist.Observe feed counters and histograms
// only (never the deterministic timeline or the wire), Quantile reads
// such a histogram back, and Serve's live endpoint exports them over
// HTTP. Nondeterministic arguments are their whole point, so calls to
// them are never nondet sinks.
var nondetSafeObs = map[string]bool{
	"WireSpan": true, "Observe": true, "Quantile": true, "Serve": true,
}

// ---- statement walk ----

func (s *nondetScan) stmts(list []ast.Stmt) {
	for _, st := range list {
		s.stmt(st)
	}
}

func (s *nondetScan) stmt(st ast.Stmt) {
	switch x := st.(type) {
	case *ast.ExprStmt:
		s.scanCalls(x.X)
	case *ast.AssignStmt:
		s.assign(x)
	case *ast.DeclStmt:
		if gd, ok := x.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, nm := range vs.Names {
					if i < len(vs.Values) {
						s.scanCalls(vs.Values[i])
						s.bindTaint(nm.Name, vs.Values[i])
					}
				}
			}
		}
	case *ast.IfStmt:
		if x.Init != nil {
			s.stmt(x.Init)
		}
		s.scanCalls(x.Cond)
		s.stmts(x.Body.List)
		if x.Else != nil {
			s.stmt(x.Else)
		}
	case *ast.ForStmt:
		if x.Init != nil {
			s.stmt(x.Init)
		}
		s.scanCalls(x.Cond)
		// Two passes: taint born late in iteration N is observable at the
		// top of iteration N+1. Findings dedup by position.
		s.stmts(x.Body.List)
		s.stmts(x.Body.List)
		if x.Post != nil {
			s.stmt(x.Post)
		}
	case *ast.RangeStmt:
		s.rangeStmt(x)
	case *ast.SwitchStmt:
		if x.Init != nil {
			s.stmt(x.Init)
		}
		s.scanCalls(x.Tag)
		s.caseArms(x.Body)
	case *ast.TypeSwitchStmt:
		if x.Init != nil {
			s.stmt(x.Init)
		}
		s.stmt(x.Assign)
		s.caseArms(x.Body)
	case *ast.SelectStmt:
		s.caseArms(x.Body)
	case *ast.BlockStmt:
		s.stmts(x.List)
	case *ast.LabeledStmt:
		s.stmt(x.Stmt)
	case *ast.ReturnStmt:
		for _, r := range x.Results {
			s.scanCalls(r)
		}
	case *ast.DeferStmt:
		s.call(x.Call)
	case *ast.SendStmt:
		s.scanCalls(x.Chan)
		s.scanCalls(x.Value)
	case *ast.IncDecStmt:
		s.scanCalls(x.X)
	}
}

func (s *nondetScan) caseArms(body *ast.BlockStmt) {
	for _, c := range body.List {
		switch cc := c.(type) {
		case *ast.CaseClause:
			for _, e := range cc.List {
				s.scanCalls(e)
			}
			s.stmts(cc.Body)
		case *ast.CommClause:
			s.stmts(cc.Body)
		}
	}
}

// rangeStmt handles the map-order source: ranging over a map taints the
// key and value variables for the duration of the body; their prior
// taint (usually none) is restored afterwards. Taint they induce on
// longer-lived variables persists — that is the leak being tracked.
func (s *nondetScan) rangeStmt(x *ast.RangeStmt) {
	s.scanCalls(x.X)
	overMap := s.isMapExpr(x.X)
	carried, carriedOK := s.exprTaint(x.X)

	type saved struct {
		name string
		old  taintInfo
		had  bool
	}
	var restores []saved
	bindLoopVar := func(e ast.Expr) {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		old, had := s.taint[id.Name]
		restores = append(restores, saved{id.Name, old, had})
		switch {
		case overMap:
			s.taint[id.Name] = taintInfo{src: "map iteration order", pos: x.Pos()}
		case carriedOK:
			s.taint[id.Name] = carried
		default:
			delete(s.taint, id.Name)
		}
	}
	bindLoopVar(x.Key)
	bindLoopVar(x.Value)

	if overMap {
		base, _ := baseIdent(x.X)
		s.rangeBase = append(s.rangeBase, base)
	}
	s.stmts(x.Body.List)
	s.stmts(x.Body.List) // see ForStmt: late taint reaches the next iteration
	if overMap {
		s.rangeBase = s.rangeBase[:len(s.rangeBase)-1]
	}
	for _, sv := range restores {
		if sv.had {
			s.taint[sv.name] = sv.old
		} else {
			delete(s.taint, sv.name)
		}
	}
}

func (s *nondetScan) isMapExpr(e ast.Expr) bool {
	t := s.u.info.TypeOf(e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// ---- assignments and propagation ----

func (s *nondetScan) assign(x *ast.AssignStmt) {
	for _, r := range x.Rhs {
		s.scanCalls(r)
	}
	for i, lhs := range x.Lhs {
		var rhs ast.Expr
		if len(x.Rhs) == 1 {
			rhs = x.Rhs[0]
		} else if i < len(x.Rhs) {
			rhs = x.Rhs[i]
		}
		if rhs == nil {
			continue
		}
		switch l := lhs.(type) {
		case *ast.Ident:
			if l.Name == "_" {
				continue
			}
			if x.Tok == token.ASSIGN || x.Tok == token.DEFINE {
				s.bindTaint(l.Name, rhs)
				continue
			}
			// Compound assignment accumulates. Integer accumulation over a
			// map range is order-independent (addition is associative);
			// float accumulation and every wall-clock/rand source are not.
			if t, ok := s.exprTaint(rhs); ok {
				if t.src == "map iteration order" && s.isIntegerIdent(l) {
					continue
				}
				s.taint[l.Name] = t
			}
		case *ast.IndexExpr, *ast.SelectorExpr, *ast.StarExpr:
			if t, ok := s.exprTaint(rhs); ok {
				base, okBase := baseIdent(lhs)
				if !okBase {
					continue
				}
				// Storing back into the map being ranged (`m[k] = f(v)`)
				// rewrites per key and leaves the map's content
				// deterministic; anything else carries the taint.
				if t.src == "map iteration order" && s.inRangeBase(base) {
					continue
				}
				s.taint[base] = t
			}
		}
	}
}

func (s *nondetScan) bindTaint(name string, rhs ast.Expr) {
	if t, ok := s.exprTaint(rhs); ok {
		s.taint[name] = t
	} else {
		delete(s.taint, name) // rebinding to a clean value clears
	}
}

func (s *nondetScan) inRangeBase(name string) bool {
	for _, b := range s.rangeBase {
		if b == name {
			return true
		}
	}
	return false
}

func (s *nondetScan) isIntegerIdent(e ast.Expr) bool {
	t := s.u.info.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// ---- sources ----

// exprTaint reports whether evaluating the expression yields a
// nondeterministic value: a tainted variable, a wall-clock or math/rand
// call, or a method call on a tainted receiver (t.UnixNano()).
func (s *nondetScan) exprTaint(e ast.Expr) (taintInfo, bool) {
	if e == nil {
		return taintInfo{}, false
	}
	var out taintInfo
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.Ident:
			if t, ok := s.taint[x.Name]; ok {
				out, found = t, true
			}
		case *ast.CallExpr:
			if t, ok := s.callTaint(x); ok {
				out, found = t, true
				return false
			}
			// len/cap of an order-tainted container are its size — the
			// one property map iteration order cannot change.
			if name, ok := callFunIdent(x); ok && (name == "len" || name == "cap") {
				return false
			}
		}
		return true
	})
	return out, found
}

// callTaint classifies a call as a nondeterminism source.
func (s *nondetScan) callTaint(call *ast.CallExpr) (taintInfo, bool) {
	if pkg, fn, ok := s.u.pkgSel(call); ok {
		switch {
		case pkg == "time" && (fn == "Now" || fn == "Since"):
			return taintInfo{src: "wall-clock time", pos: call.Pos()}, true
		case pkg == "rand":
			_ = fn
			return taintInfo{src: "unseeded math/rand", pos: call.Pos()}, true
		}
	}
	return taintInfo{}, false
}

// ---- sinks ----

// scanCalls visits every call in an expression (not descending into
// function literals) and checks it as a sink.
func (s *nondetScan) scanCalls(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch c := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			s.call(c)
		}
		return true
	})
}

func (s *nondetScan) call(call *ast.CallExpr) {
	// Sorting a map-ordered sequence is the canonical fix: it restores a
	// deterministic order, so the order-taint is cleared.
	if pkg, fn, ok := s.u.pkgSel(call); ok &&
		(pkg == "sort" || (pkg == "slices" && strings.HasPrefix(fn, "Sort"))) {
		for _, arg := range call.Args {
			if base, okBase := baseIdent(arg); okBase {
				if t, tainted := s.taint[base]; tainted && t.src == "map iteration order" {
					delete(s.taint, base)
				}
			}
		}
		return
	}
	// Direct wire payload (send or collective — the reduction-operand case).
	if op, ok := s.u.commOp(call); ok && op.payload != nil {
		if t, tainted := s.exprTaint(op.payload); tainted {
			s.sink(call.Pos(), t,
				"reaches the %s payload; wire traffic and reduction results will differ across runs — use internal/prng or a deterministic iteration order", op.name)
		}
		return
	}
	// Safe-by-contract obs entry points: wall-derived values are welcome
	// in the counter/histogram aggregates and the live endpoint.
	if sel, ok := unwrapCallFun(call).(*ast.SelectorExpr); ok && nondetSafeObs[sel.Sel.Name] {
		return
	}
	// Obs span/instant fields: the golden traces diverge.
	if sel, ok := unwrapCallFun(call).(*ast.SelectorExpr); ok && obsSinkMethods[sel.Sel.Name] {
		for _, arg := range call.Args {
			if t, tainted := s.exprTaint(arg); tainted {
				s.sink(call.Pos(), t,
					"flows into an obs %s field; golden traces and cross-run comparisons will diverge — record Recorder.Now or simulated time instead", sel.Sel.Name)
				return
			}
		}
		return
	}
	// Helper forwarding a parameter into a payload: interprocedural sink.
	callee := s.cg.resolve(call)
	if callee == nil {
		return
	}
	facts := s.u.payloadFacts(callee)
	if len(facts) == 0 {
		return
	}
	for idx, pname := range orderedParams(callee) {
		fact, sent := facts[pname]
		if !sent {
			continue
		}
		arg, ok := callArg(call, callee, idx)
		if !ok || arg == nil {
			continue
		}
		if t, tainted := s.exprTaint(arg); tainted {
			s.sink(call.Pos(), t,
				"reaches the %s payload via %s; wire traffic and reduction results will differ across runs — use internal/prng or a deterministic iteration order", fact.op, callee.Name.Name)
			return
		}
	}
}

func (s *nondetScan) sink(pos token.Pos, t taintInfo, format string, args ...any) {
	if s.reported[pos] {
		return
	}
	s.reported[pos] = true
	srcLine := s.u.Fset.Position(t.pos).Line
	s.r.report("nondet", pos,
		"value derived from %s (line %d) "+format,
		append([]any{t.src, srcLine}, args...)...)
}

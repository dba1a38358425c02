package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file is the ownership half of the wire-safety pass: a per-function
// forward dataflow over buffer-typed values (slices, maps, pointers) that
// reach communication payload arguments. The in-process transport passes
// pointers, so a rank that mutates a buffer after sending it — or lands
// received data in a buffer whose previous contents are still in flight —
// races with its peer today and silently diverges under a real network
// device (ROADMAP item 1). Two rules share the engine:
//
//	useaftersend — a sent or collectively-shared buffer (or any alias of
//	               it) is written before a happens-after sync point
//	recvalias    — received data lands in a live sent buffer, or two
//	               receives land in provably overlapping regions
//
// Sync-point model (documented in docs/analysis.md): a collective on the
// communicator is a happens-after point for point-to-point sends, as is a
// blocking receive from the same peer the buffer was sent to (the reply
// implies the peer consumed the message). Collective payloads and results
// stay shared for the rest of the function — in-process, other ranks hold
// the same backing array indefinitely — until the variable is rebound to
// a fresh allocation or a deep copy (`append([]T(nil), x...)`).
//
// The engine is interprocedural: helper calls consult the mutation
// summaries (mutation.go) to catch writes that happen inside callees, and
// the communication summaries' payload facts (summary.go) to catch sends
// that happen inside callees. Unknown callees are assumed non-mutating —
// the conservative-for-noise choice.

func checkUseAfterSend(u *Unit, r *reporter) { ownershipRule(u, r, "useaftersend") }
func checkRecvAlias(u *Unit, r *reporter)    { ownershipRule(u, r, "recvalias") }

func ownershipRule(u *Unit, r *reporter, rule string) {
	if !u.ownOnce {
		u.ownOnce = true
		eng := &ownEngine{
			u:    u,
			sums: u.summaries(),
			muts: u.mutations(),
			seen: map[string]bool{},
		}
		eng.run()
		u.ownFinds = eng.finds
	}
	r.replay(u.ownFinds, rule)
}

// bufRegion is a view of a tracked buffer: the canonical root plus a
// constant element range when one is provable (whole otherwise).
type bufRegion struct {
	root   string
	lo, hi int
	whole  bool
}

// liveInfo describes why a root is dangerous to write: in flight to a
// peer (p2p) or shared with other ranks by a collective.
type liveInfo struct {
	op   string // Send, SendRecv, Bcast, "Allreduce result", "Send via helper", ...
	pos  token.Pos
	peer string // rendered destination for p2p sends ("" unknown)
	p2p  bool   // cleared by sync points; collective sharing is not
}

// recvLand records where received data landed inside a root.
type recvLand struct {
	lo, hi int
	whole  bool
	pos    token.Pos
}

// ownState is the dataflow state at one program point.
type ownState struct {
	alias map[string]bufRegion  // variable -> region of a root
	live  map[string]*liveInfo  // root -> in-flight / shared
	recvd map[string]bool       // root -> holds data born from a Recv
	lands map[string][]recvLand // root -> receive landing sites
}

func newOwnState() *ownState {
	return &ownState{
		alias: map[string]bufRegion{},
		live:  map[string]*liveInfo{},
		recvd: map[string]bool{},
		lands: map[string][]recvLand{},
	}
}

func (st *ownState) clone() *ownState {
	c := newOwnState()
	for k, v := range st.alias {
		c.alias[k] = v
	}
	for k, v := range st.live {
		c.live[k] = v
	}
	for k, v := range st.recvd {
		c.recvd[k] = v
	}
	for k, v := range st.lands {
		c.lands[k] = append([]recvLand(nil), v...)
	}
	return c
}

// absorb unions another state's facts into this one (used to merge
// branch arms and to carry loop-body effects back to the loop head).
// Aliases established in the other state fill gaps but never override —
// on divergent rebinds the earlier binding wins, a deliberate
// first-wins heuristic.
func (st *ownState) absorb(o *ownState) {
	for k, v := range o.alias {
		if _, ok := st.alias[k]; !ok {
			st.alias[k] = v
		}
	}
	for k, v := range o.live {
		if _, ok := st.live[k]; !ok {
			st.live[k] = v
		}
	}
	for k, v := range o.recvd {
		st.recvd[k] = st.recvd[k] || v
	}
	for root, lands := range o.lands {
		have := map[token.Pos]bool{}
		for _, l := range st.lands[root] {
			have[l.pos] = true
		}
		for _, l := range lands {
			if !have[l.pos] {
				st.lands[root] = append(st.lands[root], l)
			}
		}
	}
}

// clearP2P clears every in-flight point-to-point send: a collective on
// the communicator is a happens-after point for them.
func (st *ownState) clearP2P() {
	for k, info := range st.live {
		if info.p2p {
			delete(st.live, k)
		}
	}
}

// clearPeer clears p2p sends to one peer: a blocking receive from that
// peer implies it consumed the in-flight message (request-reply order).
func (st *ownState) clearPeer(peer string) {
	if peer == "" || peer == "-1" { // unknown or AnySource: proves nothing
		return
	}
	for k, info := range st.live {
		if info.p2p && info.peer == peer {
			delete(st.live, k)
		}
	}
}

// ownEngine drives the dataflow over every function body in the unit.
type ownEngine struct {
	u      *Unit
	sums   *summarizer
	muts   *mutAnalyzer
	seen   map[string]bool
	finds  []rawFinding
	nextID int
}

func (e *ownEngine) run() {
	funcBodies(e.u, func(name string, body *ast.BlockStmt) {
		e.walkStmts(body.List, newOwnState())
	})
}

func (e *ownEngine) report(rule string, pos token.Pos, format string, args ...any) {
	key := rule + "|" + e.u.Fset.Position(pos).String()
	if e.seen[key] {
		return
	}
	e.seen[key] = true
	e.finds = append(e.finds, rawFinding{rule: rule, pos: pos, msg: fmt.Sprintf(format, args...)})
}

func (e *ownEngine) fresh(name string) string {
	e.nextID++
	return fmt.Sprintf("%s#%d", name, e.nextID)
}

func (e *ownEngine) line(pos token.Pos) int {
	return e.u.Fset.Position(pos).Line
}

// isRefExprType reports whether an expression's static type has
// reference semantics (slice, map or pointer underlying). Missing type
// info yields false: untyped expressions go untracked rather than noisy.
func (e *ownEngine) isRefExprType(x ast.Expr) bool {
	t := e.u.info.TypeOf(x)
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Slice, *types.Map, *types.Pointer:
		return true
	}
	return false
}

// ---- statement walk ----

func (e *ownEngine) walkStmts(list []ast.Stmt, st *ownState) {
	for _, s := range list {
		e.walkStmt(s, st)
	}
}

func (e *ownEngine) walkStmt(s ast.Stmt, st *ownState) {
	switch x := s.(type) {
	case *ast.ExprStmt:
		e.scanExpr(x.X, st)
	case *ast.AssignStmt:
		e.assign(x, st)
	case *ast.IncDecStmt:
		e.scanExpr(x.X, st)
		switch x.X.(type) {
		case *ast.IndexExpr, *ast.StarExpr, *ast.SelectorExpr:
			e.storeInto(x.X, nil, x.Pos(), st)
		}
	case *ast.DeclStmt:
		if gd, ok := x.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, v := range vs.Values {
					e.scanExpr(v, st)
				}
				for i, name := range vs.Names {
					var rhs ast.Expr
					if i < len(vs.Values) {
						rhs = vs.Values[i]
					}
					e.bind(name.Name, rhs, false, st)
				}
			}
		}
	case *ast.ReturnStmt:
		for _, r := range x.Results {
			e.scanExpr(r, st)
		}
	case *ast.IfStmt:
		if x.Init != nil {
			e.walkStmt(x.Init, st)
		}
		e.scanExpr(x.Cond, st)
		thenSt := st.clone()
		e.walkStmts(x.Body.List, thenSt)
		elseSt := st.clone()
		if x.Else != nil {
			e.walkStmt(x.Else, elseSt)
		}
		*st = *elseSt
		st.absorb(thenSt)
	case *ast.ForStmt:
		if x.Init != nil {
			e.walkStmt(x.Init, st)
		}
		e.scanExpr(x.Cond, st)
		e.loopBody(st, func(s2 *ownState) {
			e.walkStmts(x.Body.List, s2)
			if x.Post != nil {
				e.walkStmt(x.Post, s2)
			}
		})
	case *ast.RangeStmt:
		e.scanExpr(x.X, st)
		// The value variable views the ranged container's elements; when
		// the container is a tracked live buffer with reference-typed
		// elements, writes through the value variable are writes into it.
		if id, ok := x.Value.(*ast.Ident); ok && id.Name != "_" {
			if reg, tracked := e.resolveRef(x.X, st); tracked && e.isRefExprType(x.Value) {
				st.alias[id.Name] = bufRegion{root: reg.root, whole: true}
			} else {
				st.alias[id.Name] = bufRegion{root: e.fresh(id.Name), whole: true}
			}
		}
		if id, ok := x.Key.(*ast.Ident); ok && id.Name != "_" {
			st.alias[id.Name] = bufRegion{root: e.fresh(id.Name), whole: true}
		}
		e.loopBody(st, func(s2 *ownState) {
			e.walkStmts(x.Body.List, s2)
		})
	case *ast.SwitchStmt:
		if x.Init != nil {
			e.walkStmt(x.Init, st)
		}
		e.scanExpr(x.Tag, st)
		e.caseArms(x.Body, st)
	case *ast.TypeSwitchStmt:
		if x.Init != nil {
			e.walkStmt(x.Init, st)
		}
		e.walkStmt(x.Assign, st)
		e.caseArms(x.Body, st)
	case *ast.SelectStmt:
		e.caseArms(x.Body, st)
	case *ast.BlockStmt:
		e.walkStmts(x.List, st)
	case *ast.LabeledStmt:
		e.walkStmt(x.Stmt, st)
	case *ast.DeferStmt:
		// Runs at function exit; source order is the same approximation
		// the summary builder uses.
		e.handleCall(x.Call, st)
	case *ast.SendStmt:
		e.scanExpr(x.Chan, st)
		e.scanExpr(x.Value, st)
	case *ast.GoStmt:
		// A spawned goroutine is not part of this rank's program order.
	}
}

// loopBody analyzes a loop body twice: a probe pass discovers liveness
// the body creates (a send in iteration N makes a write at the top of
// iteration N+1 dangerous), which is then carried back to the loop head
// for the reporting pass. Findings deduplicate by position, so
// straight-line findings are not doubled.
func (e *ownEngine) loopBody(st *ownState, walk func(*ownState)) {
	probe := st.clone()
	walk(probe)
	st.absorb(probe)
	walk(st)
}

// caseArms walks each case/comm clause on a clone and merges the arms.
func (e *ownEngine) caseArms(body *ast.BlockStmt, st *ownState) {
	base := st.clone()
	for _, c := range body.List {
		var list []ast.Stmt
		switch cc := c.(type) {
		case *ast.CaseClause:
			for _, x := range cc.List {
				e.scanExpr(x, base)
			}
			list = cc.Body
		case *ast.CommClause:
			list = cc.Body
		default:
			continue
		}
		arm := base.clone()
		e.walkStmts(list, arm)
		st.absorb(arm)
	}
}

// ---- assignments and writes ----

func (e *ownEngine) assign(x *ast.AssignStmt, st *ownState) {
	for _, r := range x.Rhs {
		e.scanExpr(r, st)
	}
	multiFromCall := len(x.Rhs) == 1 && len(x.Lhs) > 1
	for i, lhs := range x.Lhs {
		var rhs ast.Expr
		if len(x.Rhs) == 1 {
			rhs = x.Rhs[0]
		} else if i < len(x.Rhs) {
			rhs = x.Rhs[i]
		}
		switch l := lhs.(type) {
		case *ast.Ident:
			if l.Name == "_" {
				continue
			}
			// p = append(p, ...) may write through the old backing array
			// before reallocating — still a use of the sent buffer.
			if rhs != nil && isAppendOf(rhs, l.Name) {
				if reg, ok := st.alias[l.Name]; ok {
					if info := st.live[reg.root]; info != nil {
						e.reportUseAfter(x.Pos(), l.Name, info, "")
					}
				}
			}
			e.bind(l.Name, rhs, multiFromCall, st)
		case *ast.IndexExpr, *ast.StarExpr, *ast.SelectorExpr:
			e.storeInto(l, rhs, x.Pos(), st)
		}
	}
}

// bind gives a variable a new view: an alias of an existing root when the
// right-hand side has reference semantics, a fresh root otherwise.
// Rebinding is what kills liveness for a name — `x = append([]T(nil),
// x...)` and `x = make(...)` both sever x from the shared buffer.
func (e *ownEngine) bind(name string, rhs ast.Expr, multiFromCall bool, st *ownState) {
	if rhs == nil {
		st.alias[name] = bufRegion{root: e.fresh(name), whole: true}
		return
	}
	if call, ok := rhs.(*ast.CallExpr); ok {
		if op, ok := e.u.commOp(call); ok {
			if op.kind.receives() {
				root := e.fresh(name)
				st.alias[name] = bufRegion{root: root, whole: true}
				st.recvd[root] = true
				return
			}
			if op.kind == opColl && op.payload != nil && e.payloadShares(call) {
				// The collective's return value is shared with other ranks by
				// the in-process transport (Bcast hands every rank the same
				// backing array); writes to it need a deep copy first. Split
				// carries no payload: the group Comm it returns is private.
				root := e.fresh(name)
				st.alias[name] = bufRegion{root: root, whole: true}
				st.live[root] = &liveInfo{op: op.name + " result", pos: call.Pos()}
				return
			}
		}
		// Any other call produces a fresh value in this frame.
		st.alias[name] = bufRegion{root: e.fresh(name), whole: true}
		return
	}
	if multiFromCall {
		// v, src := RecvFrom(...) — handled per-name above only for the
		// single-result shape; here every name gets a fresh root, marked
		// received when the call is a receive.
		root := e.fresh(name)
		st.alias[name] = bufRegion{root: root, whole: true}
		return
	}
	if e.aliasable(rhs) {
		if reg, ok := e.resolveRef(rhs, st); ok {
			st.alias[name] = reg
			return
		}
	}
	st.alias[name] = bufRegion{root: e.fresh(name), whole: true}
}

// aliasable reports whether assigning rhs shares memory with its source:
// slicing and address-taking always do; identifiers, field selections,
// indexing and dereferencing do when the resulting type has reference
// semantics (copying a slice header shares the array; copying an int
// does not).
func (e *ownEngine) aliasable(rhs ast.Expr) bool {
	switch x := rhs.(type) {
	case *ast.SliceExpr:
		return true
	case *ast.UnaryExpr:
		return x.Op == token.AND
	case *ast.ParenExpr:
		return e.aliasable(x.X)
	case *ast.Ident, *ast.IndexExpr, *ast.SelectorExpr, *ast.StarExpr:
		return e.isRefExprType(rhs)
	}
	return false
}

// storeInto handles a write through an index, dereference or field:
// the hazard sites of both rules.
func (e *ownEngine) storeInto(lhs, rhs ast.Expr, pos token.Pos, st *ownState) {
	reg, ok := e.resolveRef(lhs, st)
	if !ok {
		return
	}
	fromRecv := e.rhsFromRecv(rhs, st)
	if info := st.live[reg.root]; info != nil {
		name, _ := baseIdent(lhs)
		if fromRecv {
			e.report("recvalias", pos,
				"received data lands in %q while it is still in flight from %s at line %d; the peer may observe the received bytes instead of the sent payload",
				name, info.op, e.line(info.pos))
		} else {
			e.reportUseAfter(pos, name, info, "")
		}
	}
	if fromRecv {
		e.recordLanding(lhs, reg, pos, st)
	}
}

// copyInto handles copy(dst, src) — a write into dst, and a receive
// landing when src carries received data.
func (e *ownEngine) copyInto(dst, src ast.Expr, pos token.Pos, st *ownState) {
	reg, ok := e.resolveRef(dst, st)
	if !ok {
		return
	}
	fromRecv := e.rhsFromRecv(src, st)
	if info := st.live[reg.root]; info != nil {
		name, _ := baseIdent(dst)
		if fromRecv {
			e.report("recvalias", pos,
				"received data lands in %q while it is still in flight from %s at line %d; the peer may observe the received bytes instead of the sent payload",
				name, info.op, e.line(info.pos))
		} else {
			e.reportUseAfter(pos, name, info, "")
		}
	}
	if fromRecv {
		e.recordLanding(dst, reg, pos, st)
	}
}

func (e *ownEngine) reportUseAfter(pos token.Pos, name string, info *liveInfo, via string) {
	desc := info.op
	if info.p2p && info.peer != "" {
		desc += " to " + info.peer
	}
	verb := "after"
	if !info.p2p {
		verb = "while shared by"
	}
	suffix := ""
	if via != "" {
		suffix = " (write via " + via + ")"
	}
	e.report("useaftersend", pos,
		"buffer %q is written %s %s at line %d with no intervening sync point; deep-copy the payload or synchronize before mutating%s",
		name, verb, desc, e.line(info.pos), suffix)
}

// recordLanding notes where received data landed and reports a recvalias
// finding when two landings have provably overlapping constant ranges —
// the second receive silently overwrites part of the first. Whole-buffer
// landings never overlap-report: sequential scratch reuse is idiomatic.
func (e *ownEngine) recordLanding(lhs ast.Expr, reg bufRegion, pos token.Pos, st *ownState) {
	for _, prev := range st.lands[reg.root] {
		if prev.pos == pos {
			return // same site, revisited by the loop reporting pass
		}
	}
	if !reg.whole {
		for _, prev := range st.lands[reg.root] {
			if !prev.whole && prev.lo < reg.hi && reg.lo < prev.hi {
				name, _ := baseIdent(lhs)
				e.report("recvalias", pos,
					"receive target %s[%d:%d] overlaps the receive target [%d:%d] at line %d; the second receive silently overwrites the first",
					name, reg.lo, reg.hi, prev.lo, prev.hi, e.line(prev.pos))
				break
			}
		}
	}
	st.lands[reg.root] = append(st.lands[reg.root], recvLand{lo: reg.lo, hi: reg.hi, whole: reg.whole, pos: pos})
}

// rhsFromRecv reports whether an expression carries just-received data: a
// direct receive call, or a variable whose root was born from one.
func (e *ownEngine) rhsFromRecv(rhs ast.Expr, st *ownState) bool {
	if rhs == nil {
		return false
	}
	found := false
	ast.Inspect(rhs, func(n ast.Node) bool {
		if found {
			return false
		}
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if op, ok := e.u.commOp(x); ok && op.kind.receives() {
				found = true
				return false
			}
		}
		return true
	})
	if found {
		return true
	}
	if name, ok := baseIdent(rhs); ok {
		if reg, ok2 := st.alias[name]; ok2 {
			return st.recvd[reg.root]
		}
	}
	return false
}

// ---- expression / call scan ----

// scanExpr visits every call in an expression in syntactic order without
// entering function literals (each literal is analyzed as its own scope).
func (e *ownEngine) scanExpr(x ast.Expr, st *ownState) {
	if x == nil {
		return
	}
	ast.Inspect(x, func(n ast.Node) bool {
		switch c := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			e.handleCall(c, st)
			return false
		}
		return true
	})
}

// handleCall classifies one call: builtin, communication event, sync
// point, or unit-local helper whose mutation/send summaries apply.
func (e *ownEngine) handleCall(call *ast.CallExpr, st *ownState) {
	for _, a := range call.Args {
		e.scanExpr(a, st)
	}
	if name, ok := callFunIdent(call); ok {
		switch name {
		case "copy":
			if len(call.Args) == 2 {
				e.copyInto(call.Args[0], call.Args[1], call.Pos(), st)
			}
			return
		case "clear":
			if len(call.Args) == 1 {
				if reg, ok := e.resolveRef(call.Args[0], st); ok {
					if info := st.live[reg.root]; info != nil {
						n, _ := baseIdent(call.Args[0])
						e.reportUseAfter(call.Pos(), n, info, "")
					}
				}
			}
			return
		case "append", "len", "cap", "make", "new", "delete", "panic", "min", "max", "print", "println":
			return
		}
	}
	if op, ok := e.u.commOp(call); ok {
		switch op.kind {
		case opColl:
			// Entering a collective synchronizes earlier point-to-point
			// sends; the payload handed to it becomes shared with other
			// ranks (the transport passes the pointer through).
			st.clearP2P()
			// Allreduce consumes its payload argument before returning on
			// every path: recursive doubling sends snapshots, and the
			// reduce+bcast fallback clones at the root before broadcasting
			// (collectives.go). The *result* still aliases shared memory —
			// handled in bind — but the argument is reusable.
			if op.payload != nil && op.name != "Allreduce" && e.payloadShares(op.payload) {
				if reg, ok := e.resolveRef(op.payload, st); ok {
					st.live[reg.root] = &liveInfo{op: op.name, pos: call.Pos()}
				}
			}
		case opRecv:
			st.clearPeer(e.renderPeer(op.peer))
		default: // Send, SendRecv
			if e.payloadShares(op.payload) {
				if reg, ok := e.resolveRef(op.payload, st); ok {
					st.live[reg.root] = &liveInfo{
						op: op.name, pos: call.Pos(), p2p: true,
						peer: e.renderPeer(op.peer),
					}
				}
			}
		}
		return
	}
	callee := e.sums.cg.resolve(call)
	if callee == nil {
		return
	}
	// A callee that reaches a collective is a sync point for the caller's
	// in-flight sends (cleared before the mutation check: preferring a
	// missed report over a false one when the callee does both).
	sends := e.sentParams(callee)
	if e.calleeHasCollective(callee) {
		st.clearP2P()
	}
	muts := e.muts.mutatedParams(callee)
	if len(muts) == 0 && len(sends) == 0 {
		return
	}
	for idx, pname := range orderedParams(callee) {
		arg, ok := callArg(call, callee, idx)
		if !ok || arg == nil {
			continue
		}
		reg, tracked := e.resolveRef(arg, st)
		if !tracked {
			continue
		}
		if w, hasWrite := muts[pname]; hasWrite {
			if info := st.live[reg.root]; info != nil {
				name, _ := baseIdent(arg)
				e.reportUseAfter(call.Pos(), name, info,
					strings.Join(append([]string{callee.Name.Name}, w.path...), " → "))
			}
		}
		if fact, escapes := sends[pname]; escapes {
			if fact.op == "Allreduce" {
				continue // payload consumed before return, as above
			}
			st.live[reg.root] = &liveInfo{
				op: fact.op + " via " + callee.Name.Name, pos: call.Pos(), p2p: !fact.coll,
			}
		}
	}
}

// sentParams extracts, from a callee's communication summary, the
// parameters it forwards into a send or collective payload — the spliced
// fact that lets `forward(c, buf)` make buf live in the caller. The
// extraction itself lives in perf.go, shared with the performance rules.
func (e *ownEngine) sentParams(fd *ast.FuncDecl) map[string]sentFact {
	return e.u.payloadFacts(fd)
}

// calleeHasCollective reports whether the callee's summary reaches any
// collective operation.
func (e *ownEngine) calleeHasCollective(fd *ast.FuncDecl) bool {
	var has func(effs []Effect) bool
	has = func(effs []Effect) bool {
		for _, ef := range effs {
			if ef.Kind == EffColl {
				return true
			}
			if has(ef.Body) {
				return true
			}
			for _, arm := range ef.Arms {
				if has(arm) {
					return true
				}
			}
		}
		return false
	}
	return has(e.sums.funcSummary(fd).Effects)
}

// payloadShares reports whether passing x as a payload shares memory with
// the caller's frame: reference types alias outright, and composite
// values carrying references (a struct with a slice field) share their
// backing arrays through the shallow copy. Sending pos[0] — a plain int —
// copies the value and leaves nothing live.
func (e *ownEngine) payloadShares(x ast.Expr) bool {
	switch v := stripParens(x).(type) {
	case *ast.SliceExpr:
		return true
	case *ast.UnaryExpr:
		if v.Op == token.AND {
			return true
		}
	}
	if t := e.u.info.TypeOf(x); t != nil {
		if b, ok := t.(*types.Basic); !ok || b.Kind() != types.Invalid {
			return e.u.hasReferenceParts(t, false)
		}
		// an unresolved cross-package type: judge syntactically below
	}
	_, isIdent := stripParens(x).(*ast.Ident)
	return isIdent
}

// ---- reference resolution ----

// resolveRef maps an expression to the region of a tracked root it
// views. First sight of a reference-typed identifier (typically a
// parameter) registers it as its own root.
func (e *ownEngine) resolveRef(x ast.Expr, st *ownState) (bufRegion, bool) {
	switch v := x.(type) {
	case *ast.ParenExpr:
		return e.resolveRef(v.X, st)
	case *ast.Ident:
		if reg, ok := st.alias[v.Name]; ok {
			return reg, true
		}
		if e.isRefExprType(v) {
			reg := bufRegion{root: v.Name, whole: true}
			st.alias[v.Name] = reg
			return reg, true
		}
		return bufRegion{}, false
	case *ast.SliceExpr:
		base, ok := e.resolveRef(v.X, st)
		if !ok {
			return bufRegion{}, false
		}
		if base.whole {
			lo, loOK := 0, true
			if v.Low != nil {
				lo, loOK = e.u.constInt(v.Low)
			}
			hi, hiOK := 0, false
			if v.High != nil {
				hi, hiOK = e.u.constInt(v.High)
			}
			if loOK && hiOK {
				return bufRegion{root: base.root, lo: lo, hi: hi}, true
			}
		}
		return bufRegion{root: base.root, whole: true}, true
	case *ast.IndexExpr:
		base, ok := e.resolveRef(v.X, st)
		if !ok {
			return bufRegion{}, false
		}
		if base.whole {
			if i, iOK := e.u.constInt(v.Index); iOK {
				return bufRegion{root: base.root, lo: i, hi: i + 1}, true
			}
		}
		return bufRegion{root: base.root, whole: true}, true
	case *ast.StarExpr:
		return e.resolveRef(v.X, st)
	case *ast.SelectorExpr:
		// Field granularity is the base object: writing g.Cells[0]
		// mutates whatever g views. Package selectors have no tracked
		// base and fall out naturally.
		return e.resolveRef(v.X, st)
	case *ast.UnaryExpr:
		if v.Op == token.AND {
			if name, ok := baseIdent(v.X); ok {
				if reg, ok2 := st.alias[name]; ok2 {
					return reg, true
				}
				reg := bufRegion{root: name, whole: true}
				st.alias[name] = reg
				return reg, true
			}
		}
		return bufRegion{}, false
	}
	return bufRegion{}, false
}

// renderPeer renders a peer expression for sync matching: constants fold
// to their value, identifiers and simple selectors to their spelling.
// Unmatchable expressions render as "" (never equal to anything).
func (e *ownEngine) renderPeer(x ast.Expr) string {
	if v, ok := e.u.constInt(x); ok {
		return fmt.Sprintf("%d", v)
	}
	switch v := x.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		if id, ok := v.X.(*ast.Ident); ok {
			return id.Name + "." + v.Sel.Name
		}
	case *ast.ParenExpr:
		return e.renderPeer(v.X)
	}
	return ""
}

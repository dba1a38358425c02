package analysis

import (
	"go/ast"
	"go/token"
)

// The rolledcoll rule recognizes hand-rolled collectives: a loop indexed
// over the world size whose body sends to or receives from the loop
// variable — the O(P) linear pattern learners write where an O(log P)
// tree collective exists (the MPJ Express course experience in
// PAPERS.md). The matched shape and its replacement are named in the
// finding:
//
//	root sends the same value to all     → Bcast  (binomial tree)
//	root sends the i-th slice to each    → Scatter
//	all contributions received at root   → Gather
//	received contributions folded in     → Reduce / Allreduce
//	symmetric send+recv with every rank  → Alltoall
//
// Interprocedural: a send or receive inside a helper counts when the
// helper's summary marks its peer as a parameter and the call site binds
// that parameter to the loop variable. The substrate's own linear
// fallbacks (internal/cluster) use the raw transport and never match the
// public vocabulary, so implementing a collective is not a finding —
// only re-rolling one on top of the public API is.

func checkRolledColl(u *Unit, r *reporter) {
	sums := u.summaries()
	funcBodies(u, func(name string, body *ast.BlockStmt) {
		sizes := sizeIdents(body)
		ast.Inspect(body, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			fs, ok := n.(*ast.ForStmt)
			if !ok {
				return true
			}
			rankLoop(u, r, sums.cg, fs, sizes)
			return true
		})
	})
}

// sizeIdents collects the names a function body binds to the world size
// (`size := c.Size()`), so a loop bound spelled through a variable still
// reads as rank-indexed.
func sizeIdents(body *ast.BlockStmt) map[string]bool {
	out := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, isID := lhs.(*ast.Ident)
			if !isID {
				continue
			}
			if isSizeCall(as.Rhs[i]) {
				out[id.Name] = true
			}
		}
		return true
	})
	return out
}

// isSizeCall matches X.Size() — the communicator's world-size accessor.
func isSizeCall(e ast.Expr) bool {
	call, ok := stripParens(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Size"
}

// mentionsSize reports whether an expression involves the world size —
// a Size() call or a variable bound to one.
func mentionsSize(e ast.Expr, sizes map[string]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		switch x := n.(type) {
		case *ast.CallExpr:
			if isSizeCall(x) {
				found = true
			}
		case *ast.Ident:
			if sizes[x.Name] {
				found = true
			}
		}
		return true
	})
	return found
}

// rollEvents aggregates what one rank-indexed loop body does with the
// loop variable as a peer.
type rollEvents struct {
	sends, recvs int
	slicedSend   bool // a send payload indexed/sliced by the loop var
	folded       bool // a received value folded into an accumulator
	via          string
}

func rankLoop(u *Unit, r *reporter, cg *callGraph, fs *ast.ForStmt, sizes map[string]bool) {
	iv, ok := loopVarOverSize(fs, sizes)
	if !ok {
		return
	}
	var ev rollEvents
	collectRollEvents(u, cg, fs.Body, iv, &ev)
	if ev.sends == 0 && ev.recvs == 0 {
		return
	}
	var pattern, fix string
	switch {
	case ev.sends > 0 && ev.recvs > 0:
		pattern, fix = "a symmetric per-rank exchange (hand-rolled Alltoall)",
			"cluster.Alltoall delivers every part with deterministic pairwise partners"
	case ev.sends > 0 && ev.slicedSend:
		pattern, fix = "a root sending the i-th slice to each rank (hand-rolled Scatter)",
			"cluster.Scatter ships segments down a binomial tree in O(log P) rounds instead of O(P) root sends"
	case ev.sends > 0:
		pattern, fix = "a root sending the same value to every rank (hand-rolled Bcast)",
			"cluster.Bcast broadcasts down a binomial tree in O(log P) rounds instead of O(P) root sends"
	case ev.folded:
		pattern, fix = "every rank's contribution received and folded at one rank (hand-rolled Reduce)",
			"cluster.Reduce (or Allreduce) folds up a binomial tree in O(log P) rounds instead of O(P) root receives"
	default:
		pattern, fix = "every rank's contribution received at one rank (hand-rolled Gather)",
			"cluster.Gather collects up a binomial tree in O(log P) rounds instead of O(P) root receives"
	}
	through := ""
	if ev.via != "" {
		through = " (communication via " + ev.via + ")"
	}
	r.report("rolledcoll", fs.Pos(),
		"this loop over the world size is %s%s; %s", pattern, through, fix)
}

// loopVarOverSize matches `for i := lo; i < size; i++`-shaped headers
// where the bound involves the world size, returning the loop variable.
func loopVarOverSize(fs *ast.ForStmt, sizes map[string]bool) (string, bool) {
	init, ok := fs.Init.(*ast.AssignStmt)
	if !ok || init.Tok != token.DEFINE || len(init.Lhs) != 1 {
		return "", false
	}
	iv, ok := init.Lhs[0].(*ast.Ident)
	if !ok {
		return "", false
	}
	cond, ok := fs.Cond.(*ast.BinaryExpr)
	if !ok {
		return "", false
	}
	var bound ast.Expr
	switch cond.Op {
	case token.LSS, token.LEQ, token.NEQ:
		bound = cond.Y
	case token.GTR, token.GEQ:
		bound = cond.X // `size > i` spelling
	default:
		return "", false
	}
	if id, isID := stripParens(cond.X).(*ast.Ident); !isID || id.Name != iv.Name {
		if id, isID := stripParens(cond.Y).(*ast.Ident); !isID || id.Name != iv.Name {
			return "", false
		}
		bound = cond.X
	}
	if !mentionsSize(bound, sizes) {
		return "", false
	}
	return iv.Name, true
}

// collectRollEvents scans a loop body for sends/receives whose peer is
// the loop variable, directly or through a helper whose summary marks
// the peer as a bound parameter.
func collectRollEvents(u *Unit, cg *callGraph, body *ast.BlockStmt, iv string, ev *rollEvents) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if as, ok := n.(*ast.AssignStmt); ok && as.Tok != token.ASSIGN && as.Tok != token.DEFINE {
			// A compound assignment folding a rank-peer receive is the
			// accumulate half of a Reduce.
			for _, rhs := range as.Rhs {
				if recvWithPeer(u, rhs, iv) {
					ev.folded = true
				}
			}
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if op, ok := u.commOp(call); ok && (op.kind == opSend || op.name == "Recv") {
			if mentionsIdent(op.peer, iv) {
				if op.kind == opRecv {
					ev.recvs++
				} else {
					ev.sends++
					if indexedBy(op.payload, iv) {
						ev.slicedSend = true
					}
				}
			}
			return true
		}
		callee := cg.resolve(call)
		if callee == nil {
			return true
		}
		peerParams := peerParamFacts(u, callee)
		if len(peerParams) == 0 {
			return true
		}
		for idx, pname := range orderedParams(callee) {
			kind, isPeer := peerParams[pname]
			if !isPeer {
				continue
			}
			arg, ok := callArg(call, callee, idx)
			if !ok || arg == nil || !mentionsIdent(arg, iv) {
				continue
			}
			ev.via = callee.Name.Name
			if kind == EffSend {
				ev.sends++
				// The payload fact tells us which argument carries the
				// data; a loop-var-indexed slice there is the Scatter shape.
				for pidx, ppname := range orderedParams(callee) {
					if _, sent := u.payloadFacts(callee)[ppname]; !sent {
						continue
					}
					if parg, ok := callArg(call, callee, pidx); ok && indexedBy(parg, iv) {
						ev.slicedSend = true
					}
				}
			} else {
				ev.recvs++
			}
		}
		return true
	})
	// An assignment like `acc = acc + Recv(...)` (or `acc = op(acc, ...)`)
	// is also a fold; detect it on a second, statement-shaped pass.
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		lhs, isID := as.Lhs[0].(*ast.Ident)
		if !isID {
			return true
		}
		if recvWithPeer(u, as.Rhs[0], iv) && mentionsIdent(as.Rhs[0], lhs.Name) {
			ev.folded = true
		}
		return true
	})
}

// peerParamFacts maps a callee's parameters that flow into a send or
// receive peer position to the effect kind, from its summary.
func peerParamFacts(u *Unit, fd *ast.FuncDecl) map[string]EffectKind {
	out := map[string]EffectKind{}
	var walk func(effs []Effect)
	walk = func(effs []Effect) {
		for _, ef := range effs {
			if (ef.Kind == EffSend || ef.Kind == EffRecv) && ef.Peer.class == valParam {
				if _, dup := out[ef.Peer.param]; !dup {
					out[ef.Peer.param] = ef.Kind
				}
			}
			walk(ef.Body)
			for _, arm := range ef.Arms {
				walk(arm)
			}
		}
	}
	walk(u.summaries().funcSummary(fd).Effects)
	return out
}

// recvWithPeer reports whether the expression contains a receive whose
// source argument mentions the loop variable.
func recvWithPeer(u *Unit, e ast.Expr, iv string) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if op, ok := u.commOp(call); ok && op.name == "Recv" && mentionsIdent(op.peer, iv) {
			found = true
		}
		return true
	})
	return found
}

// indexedBy reports whether the expression indexes or slices by the loop
// variable — the i-th-part signature that separates Scatter from Bcast.
func indexedBy(e ast.Expr, iv string) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		switch x := n.(type) {
		case *ast.IndexExpr:
			if mentionsIdent(x.Index, iv) {
				found = true
			}
		case *ast.SliceExpr:
			if mentionsIdent(x.Low, iv) || mentionsIdent(x.High, iv) {
				found = true
			}
		}
		return true
	})
	return found
}

package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// This file reports the SPMD protocol: every rank runs the same
// collectives in the same order, and every constant tag pairs up. One
// pass over the unit's communication summaries (summary.go) finds each
// defect and files it under one of three rules by what it takes to see
// it:
//
//	collective — a rank-divergent branch (an if or a switch on the rank)
//	             whose arms run different collective sequences, visible
//	             without expanding calls
//	sendrecv   — a Send whose constant tag no Recv in the package
//	             matches, counting each function's own effects only
//	protocol   — a collective mismatch or orphaned Send tag that only
//	             call expansion shows; a blocking Recv with a constant
//	             tag no reachable Send produces; a collective inside a
//	             loop whose trip count depends on the rank
//
// No site is filed under two rules.

func checkCollective(u *Unit, r *reporter) { spmdRule(u, r, "collective") }
func checkSendRecv(u *Unit, r *reporter)   { spmdRule(u, r, "sendrecv") }
func checkProtocol(u *Unit, r *reporter)   { spmdRule(u, r, "protocol") }

func spmdRule(u *Unit, r *reporter, rule string) {
	if !u.spmdOnce {
		u.spmdOnce = true
		u.spmdFinds = spmdPass(u)
	}
	r.replay(u.spmdFinds, rule)
}

// spmdScan accumulates the findings of one unit's pass.
type spmdScan struct {
	u          *Unit
	seenBranch map[token.Pos]bool
	seenColl   map[token.Pos]bool
	finds      []rawFinding
}

func (p *spmdScan) report(rule string, pos token.Pos, format string, args ...any) {
	p.finds = append(p.finds, rawFinding{rule: rule, pos: pos, msg: fmt.Sprintf(format, args...)})
}

// spmdPass walks the summary of every declaration and function literal,
// then matches tags package-wide.
func spmdPass(u *Unit) []rawFinding {
	s := u.summaries()
	p := &spmdScan{u: u, seenBranch: map[token.Pos]bool{}, seenColl: map[token.Pos]bool{}}
	own, expanded := newTagCensus(), newTagCensus()
	for _, fd := range s.cg.decls {
		effects := s.funcSummary(fd).Effects
		p.walk(effects, nil)
		own.add(effects, true)
	}
	// Expanded effects are enumerated from the call-graph roots, so each
	// helper's sends and receives are seen with the most specific
	// bindings its callers provide.
	for _, fd := range s.cg.roots() {
		expanded.add(s.funcSummary(fd).Effects, false)
	}
	eachFuncLit(u, func(lit *ast.FuncLit) {
		effects := s.litSummary(lit).Effects
		p.walk(effects, nil)
		own.add(effects, true)
		expanded.add(effects, false)
	})
	p.orphanTags(own, expanded)
	return p.finds
}

// eachFuncLit visits every function literal in the unit once.
func eachFuncLit(u *Unit, visit func(lit *ast.FuncLit)) {
	for _, nodes := range u.fileNodes() {
		for _, n := range nodes {
			if lit, ok := n.(*ast.FuncLit); ok {
				visit(lit)
			}
		}
	}
}

// flattenColls linearizes the collective calls under a summary subtree in
// source order (both arms of branches, loop bodies once), filtered to the
// branch's communicator. intraOnly keeps only effects visible without
// call expansion.
func flattenColls(effects []Effect, comm string, intraOnly bool) []Effect {
	var out []Effect
	for _, e := range effects {
		switch e.Kind {
		case EffColl:
			if intraOnly && len(e.Path) > 0 {
				continue
			}
			if comm == "" || e.Comm == "" || e.Comm == comm {
				out = append(out, e)
			}
		case EffBranch:
			for _, a := range e.Arms {
				out = append(out, flattenColls(a, comm, intraOnly)...)
			}
		case EffLoop:
			out = append(out, flattenColls(e.Body, comm, intraOnly)...)
		}
	}
	return out
}

// walk visits every rank-divergent branch and every loop with a
// rank-dependent trip count in a summary sequence. cont holds the
// enclosing frames' continuations: the effects ranks fall through to.
func (p *spmdScan) walk(seq []Effect, cont []Effect) {
	for i, e := range seq {
		rest := seq[i+1:]
		switch e.Kind {
		case EffBranch:
			if e.Divergent && len(e.Path) == 0 && !p.seenBranch[e.Pos] {
				p.seenBranch[e.Pos] = true
				p.branch(e, concatEffects(rest, cont))
			}
			childCont := concatEffects(rest, cont)
			for _, arm := range e.Arms {
				p.walk(arm, childCont)
			}
		case EffLoop:
			if e.RankTrips {
				p.rankTrips(e)
			}
			p.walk(e.Body, concatEffects(rest, cont))
		}
	}
}

func concatEffects(a, b []Effect) []Effect {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make([]Effect, 0, len(a)+len(b))
	out = append(out, a...)
	return append(out, b...)
}

// armColls returns, for each arm of a rank-divergent branch, the
// collectives ranks taking it run from the branch to the end of the
// function: the arm's own, then, unless the arm leaves the function,
// those of later.
func armColls(br Effect, later []Effect, intraOnly bool) [][]Effect {
	tail := flattenColls(later, br.Comm, intraOnly)
	seqs := make([][]Effect, len(br.Arms))
	for j, arm := range br.Arms {
		seqs[j] = flattenColls(arm, br.Comm, intraOnly)
		if !br.Term[j] {
			seqs[j] = append(seqs[j], tail...)
		}
	}
	return seqs
}

// branch reports a rank-divergent branch whose arms run different
// collective sequences: as collective when the arms differ without call
// expansion, as protocol when only expansion shows the difference.
func (p *spmdScan) branch(br Effect, later []Effect) {
	intra := armColls(br, later, true)
	if !sameArms(intra) {
		labels, stmt := armLabels(br)
		var arms []string
		for j, ops := range intra {
			arms = append(arms, fmt.Sprintf("%s calls [%s]", labels[j], describeColls(ops)))
		}
		p.report("collective", br.Pos,
			"rank-divergent collective sequence: %s — every rank must execute the same collectives in the same order (sequences include calls after this %s)",
			strings.Join(arms, ", "), stmt)
		return
	}
	full := armColls(br, later, false)
	if sameArms(full) {
		return
	}
	var arms []string
	for j, ops := range full {
		arms = append(arms, fmt.Sprintf("arm %d runs [%s]", j+1, describeColls(ops)))
	}
	p.report("protocol", br.Pos,
		"rank-divergent collective sequence across function calls: %s — every rank must execute the same collectives in the same order (sequences include calls after the branch)",
		strings.Join(arms, ", "))
}

// armLabels names a branch's arms as its statement spells them: the then-
// and else-arm of an if, or each case of a switch, with the implicit
// default last when the switch has none. It also returns the statement's
// keyword.
func armLabels(br Effect) ([]string, string) {
	sw, ok := br.stmt.(*ast.SwitchStmt)
	if !ok {
		return []string{"then-arm", "else-arm"}, "if"
	}
	var labels []string
	for _, c := range sw.Body.List {
		cc := c.(*ast.CaseClause)
		if cc.List == nil {
			labels = append(labels, "default")
			continue
		}
		var exprs []string
		for _, e := range cc.List {
			exprs = append(exprs, types.ExprString(e))
		}
		labels = append(labels, "case "+strings.Join(exprs, ", "))
	}
	if len(labels) < len(br.Arms) {
		labels = append(labels, "implicit default")
	}
	return labels, "switch"
}

func sameArms(seqs [][]Effect) bool {
	for _, s := range seqs[1:] {
		if !sameOpSeq(seqs[0], s) {
			return false
		}
	}
	return true
}

func sameOpSeq(a, b []Effect) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Op != b[i].Op {
			return false
		}
	}
	return true
}

func describeColls(ops []Effect) string {
	if len(ops) == 0 {
		return "none"
	}
	var ns []string
	for _, o := range ops {
		ns = append(ns, o.Op+o.pathString())
	}
	return strings.Join(ns, ", ")
}

// rankTrips reports the collectives inside a loop whose trip count is
// rank-dependent, including collectives reached through calls.
func (p *spmdScan) rankTrips(loop Effect) {
	for _, coll := range flattenColls(loop.Body, "", false) {
		if p.seenColl[coll.Pos] {
			continue
		}
		p.seenColl[coll.Pos] = true
		loopPos := p.u.Fset.Position(loop.Pos)
		p.report("protocol", coll.Pos,
			"collective %s%s inside the loop at %s:%d whose trip count depends on the rank — ranks execute different numbers of this collective, which mismatches the SPMD sequence",
			coll.Op, coll.pathString(), filepath.Base(loopPos.Filename), loopPos.Line)
	}
}

// tagCensus records the point-to-point tags a set of summaries uses.
type tagCensus struct {
	sends, recvs       []*Effect // constant-tag sends; blocking receives with a concrete constant tag
	sendTags, recvTags map[int]bool
	// anySend and anyRecv record a send or receive whose tag could be
	// anything: a dynamic or still-symbolic tag, or AnyTag.
	anySend, anyRecv bool
}

func newTagCensus() *tagCensus {
	return &tagCensus{sendTags: map[int]bool{}, recvTags: map[int]bool{}}
}

// add records a summary's effects. own keeps only the summarized
// function's own frame, leaving out what call expansion spliced in.
func (t *tagCensus) add(effects []Effect, own bool) {
	for i := range effects {
		e := &effects[i]
		if own && len(e.Path) > 0 {
			continue
		}
		switch e.Kind {
		case EffSend:
			if e.Tag.class == valConst {
				t.sendTags[e.Tag.val] = true
				t.sends = append(t.sends, e)
			} else {
				t.anySend = true
			}
		case EffRecv:
			if e.Tag.class == valConst && e.Tag.val >= 0 {
				t.recvTags[e.Tag.val] = true
				if e.Blocking {
					t.recvs = append(t.recvs, e)
				}
			} else {
				t.anyRecv = true
			}
		case EffBranch:
			for _, arm := range e.Arms {
				t.add(arm, own)
			}
		case EffLoop:
			t.add(e.Body, own)
		}
	}
}

// orphanTags matches constant tags package-wide. A receive whose tag
// could be anything silences the send direction, and a send whose tag
// could be anything silences the receive direction. The sendrecv view
// counts each function's own frame; protocol reports the orphaned Sends
// only call expansion shows: a tag a caller's argument makes constant,
// or one the view could not judge because a receive's tag was a
// parameter until its callers bound it.
func (p *spmdScan) orphanTags(own, expanded *tagCensus) {
	seen := map[token.Pos]bool{}
	if !own.anyRecv {
		for _, sd := range own.sends {
			if !own.recvTags[sd.Tag.val] {
				seen[sd.Pos] = true
				p.report("sendrecv", sd.Pos,
					"Send with tag %d has no matching Recv tag anywhere in this package — the message can never be received", sd.Tag.val)
			}
		}
	}
	if !expanded.anyRecv {
		for _, sd := range expanded.sends {
			// A tag some receive takes in its own frame is received, even
			// where expansion stopped short of that receive.
			if expanded.recvTags[sd.Tag.val] || own.recvTags[sd.Tag.val] || seen[sd.Pos] {
				continue
			}
			seen[sd.Pos] = true
			why := "once calls are expanded, so no run can receive this message"
			if sd.Tag.bound {
				why = "— the tag is bound at the call site, so no run can receive this message"
			}
			p.report("protocol", sd.Pos,
				"Send with tag %d%s has no matching Recv tag anywhere in this package %s",
				sd.Tag.val, sd.pathString(), why)
		}
	}
	if !expanded.anySend {
		for _, rc := range expanded.recvs {
			if expanded.sendTags[rc.Tag.val] || seen[rc.Pos] {
				continue
			}
			seen[rc.Pos] = true
			p.report("protocol", rc.Pos,
				"blocking Recv with tag %d%s that no reachable Send produces — every rank executing this receive hangs forever",
				rc.Tag.val, rc.pathString())
		}
	}
}

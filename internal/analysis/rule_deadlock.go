package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"strings"
)

// checkDeadlock is the static wait-cycle detector. Send is non-blocking
// in the cluster runtime (eager/buffered semantics), so the only
// point-to-point deadlock shape is a cycle of blocking Recvs: every
// involved rank sits in a Recv whose matching Send lies beyond someone
// else's blocked Recv. Two detectors cover the common shapes:
//
//  1. divergent-arm simulation: for each rank-divergent branch, the
//     per-arm effect programs (calls expanded) are executed against a
//     shared in-flight message pool; if the simulation wedges with every
//     arm blocked in a Recv, no interleaving of real ranks can finish —
//     a wait cycle, reported with each arm's blocking site and call path;
//  2. uniform receive-before-send: inside a World.Run rank body, a
//     blocking Recv in rank-uniform code whose matching Send occurs only
//     later in the same body blocks every rank before any can send.
//
// Both detectors are deliberately conservative: any construct they cannot
// model exactly (nested divergence, asymmetric uniform branches, dynamic
// tags in flight) disables the simulation for that branch rather than
// guessing.
func checkDeadlock(u *Unit, r *reporter) {
	s := u.summaries()
	seen := map[token.Pos]bool{}
	for _, fd := range s.cg.decls {
		sum := s.funcSummary(fd)
		scanDivergentSims(u, r, sum.Effects, nil, seen)
	}
	eachFuncLit(u, func(lit *ast.FuncLit) {
		sum := s.litSummary(lit)
		scanDivergentSims(u, r, sum.Effects, nil, seen)
	})
	checkUniformRecvFirst(u, r, s)
}

// simOp is one step of a linearized per-arm program.
type simOp struct {
	kind byte // 's' send, 'r' blocking recv, 'c' collective
	tag  operand
	e    Effect
}

// linearize flattens a summary subtree into a straight-line program for
// the wait-cycle simulation. ok is false when the subtree contains a
// construct the simulation cannot model faithfully (nested rank
// divergence, uniform branches whose arms communicate differently).
func linearize(effects []Effect) (prog []simOp, ok bool) {
	for _, e := range effects {
		switch e.Kind {
		case EffSend:
			prog = append(prog, simOp{kind: 's', tag: e.Tag, e: e})
		case EffRecv:
			if e.Blocking {
				prog = append(prog, simOp{kind: 'r', tag: e.Tag, e: e})
			}
		case EffColl:
			prog = append(prog, simOp{kind: 'c', e: e})
		case EffBranch:
			if stay, ok := e.earlyReturn(); ok {
				p, ok := linearize(stay)
				if !ok {
					return nil, false
				}
				prog = append(prog, p...)
				continue
			}
			if e.Divergent {
				return nil, false
			}
			var armProgs [][]simOp
			for _, arm := range e.Arms {
				p, ok := linearize(arm)
				if !ok {
					return nil, false
				}
				armProgs = append(armProgs, p)
			}
			for _, p := range armProgs[1:] {
				if !sameProg(armProgs[0], p) {
					return nil, false
				}
			}
			for j, t := range e.Term {
				if t && len(armProgs[j]) > 0 {
					return nil, false
				}
			}
			prog = append(prog, armProgs[0]...)
		case EffLoop:
			p, ok := linearize(e.Body)
			if !ok {
				return nil, false
			}
			prog = append(prog, p...)
		}
	}
	return prog, true
}

func sameProg(a, b []simOp) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].kind != b[i].kind || a[i].tag != b[i].tag {
			return false
		}
	}
	return true
}

// flight is the pool of in-flight messages during a simulation.
type flight struct {
	known   map[int]int // tag -> pending count
	unknown int         // sends with dynamic tags: match any receive
}

func (fl *flight) send(tag operand) {
	if tag.class == valConst {
		if fl.known == nil {
			fl.known = map[int]int{}
		}
		fl.known[tag.val]++
		return
	}
	fl.unknown++
}

// consume takes one message matching a receive's tag, optimistically:
// dynamic sends satisfy any tag, and AnyTag / dynamic receives match any
// pending message — so the simulation only wedges when no reading of the
// unknowns could make progress.
func (fl *flight) consume(tag operand) bool {
	wildcard := tag.class != valConst || tag.val < 0
	if wildcard {
		for t, n := range fl.known {
			if n > 0 {
				fl.known[t]--
				if fl.known[t] == 0 {
					delete(fl.known, t)
				}
				return true
			}
		}
		if fl.unknown > 0 {
			fl.unknown--
			return true
		}
		return false
	}
	if fl.known[tag.val] > 0 {
		fl.known[tag.val]--
		if fl.known[tag.val] == 0 {
			delete(fl.known, tag.val)
		}
		return true
	}
	if fl.unknown > 0 {
		fl.unknown--
		return true
	}
	return false
}

// scanDivergentSims walks a summary and simulates every rank-divergent
// branch it can model. cont carries the enclosing continuations.
func scanDivergentSims(u *Unit, r *reporter, seq []Effect, cont []Effect, seen map[token.Pos]bool) {
	for i, e := range seq {
		rest := seq[i+1:]
		switch e.Kind {
		case EffBranch:
			if e.Divergent && len(e.Path) == 0 && !seen[e.Pos] {
				seen[e.Pos] = true
				simulateBranch(u, r, e, concatEffects(rest, cont))
			}
			childCont := concatEffects(rest, cont)
			for _, arm := range e.Arms {
				scanDivergentSims(u, r, arm, childCont, seen)
			}
		case EffLoop:
			scanDivergentSims(u, r, e.Body, concatEffects(rest, cont), seen)
		}
	}
}

// simulateBranch runs the wait-cycle simulation over one divergent
// branch: each arm (plus the continuation, for arms that fall through)
// becomes a program; programs advance whenever their head is a send or a
// satisfiable receive. A wedge with every arm blocked in a Recv is
// reported; anything else (an arm finished, an arm waiting at a
// collective, an unmodelable construct) is not.
func simulateBranch(u *Unit, r *reporter, br Effect, cont []Effect) {
	contProg, ok := linearize(cont)
	if !ok {
		return
	}
	var progs [][]simOp
	for j, arm := range br.Arms {
		p, ok := linearize(arm)
		if !ok {
			return
		}
		if !br.Term[j] {
			p = append(p, contProg...)
		}
		progs = append(progs, p)
	}
	if len(progs) < 2 {
		return
	}
	nonEmpty := 0
	for _, p := range progs {
		if len(p) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 2 {
		return
	}

	pcs := make([]int, len(progs))
	var fl flight
	for progress := true; progress; {
		progress = false
		for j, p := range progs {
			for pcs[j] < len(p) {
				op := p[pcs[j]]
				if op.kind == 's' {
					fl.send(op.tag)
					pcs[j]++
					progress = true
					continue
				}
				if op.kind == 'r' && fl.consume(op.tag) {
					pcs[j]++
					progress = true
					continue
				}
				break // blocked at a recv or a collective
			}
		}
	}
	for j, p := range progs {
		if pcs[j] >= len(p) || p[pcs[j]].kind != 'r' {
			return // an arm finished or waits at a collective: not the cycle shape
		}
	}
	var blocked []string
	for j, p := range progs {
		op := p[pcs[j]]
		pos := u.Fset.Position(op.e.Pos)
		blocked = append(blocked, fmt.Sprintf("arm %d blocks in %s(tag %s) at %s:%d%s",
			j+1, op.e.Op, formatOperand(op.tag), filepath.Base(pos.Filename), pos.Line, op.e.pathString()))
	}
	r.report("deadlock", br.Pos,
		"static Recv wait-cycle across rank-divergent arms: %s — every matching Send lies beyond another arm's blocked Recv, so no interleaving of ranks can finish",
		strings.Join(blocked, "; "))
}

// checkUniformRecvFirst finds receive-before-send hangs in World.Run rank
// bodies: a blocking Recv in rank-uniform code, executed identically by
// every rank, whose matching Send appears only later in the body. Every
// rank blocks at the receive, so no rank ever reaches the send.
func checkUniformRecvFirst(u *Unit, r *reporter, s *summarizer) {
	for _, nodes := range u.fileNodes() {
		for _, n := range nodes {
			call, ok := n.(*ast.CallExpr)
			if !ok || callName(call) != "Run" {
				continue
			}
			for _, a := range call.Args {
				if lit, ok := a.(*ast.FuncLit); ok && u.isRankBody(lit) {
					sum := s.litSummary(lit)
					var all flight
					collectSends(sum.Effects, &all)
					var avail flight
					uniformScan(u, r, sum.Effects, &avail, &all)
				}
			}
		}
	}
}

// collectSends accumulates every send in the subtree into fl.
func collectSends(effects []Effect, fl *flight) {
	for _, e := range effects {
		switch e.Kind {
		case EffSend:
			fl.send(e.Tag)
		case EffBranch:
			for _, arm := range e.Arms {
				collectSends(arm, fl)
			}
		case EffLoop:
			collectSends(e.Body, fl)
		}
	}
}

// matchable reports whether fl holds a message a receive with this tag
// could consume, without consuming it. Dynamic sends count: they could
// carry any tag.
func (fl *flight) matchable(tag operand) bool {
	if fl.unknown > 0 {
		return true
	}
	if tag.class != valConst || tag.val < 0 {
		return len(fl.known) > 0
	}
	return fl.known[tag.val] > 0
}

// definitelyMatches reports whether fl holds a send that certainly
// matches this tag — constant-tag sends only, so a report is only made
// when the matching send provably exists.
func (fl *flight) definitelyMatches(tag operand) bool {
	if tag.class != valConst || tag.val < 0 {
		return len(fl.known) > 0
	}
	return fl.known[tag.val] > 0
}

// uniformScan walks a rank body in order. Sends accumulate into avail;
// a blocking Recv in uniform context with no accumulated matching send —
// but a matching send somewhere in the body — is the all-ranks-block
// shape. Receives inside rank-divergent arms are skipped (only some
// ranks block there; the divergent simulation owns those), but their
// sends still accumulate.
func uniformScan(u *Unit, r *reporter, effects []Effect, avail, all *flight) {
	for _, e := range effects {
		switch e.Kind {
		case EffSend:
			avail.send(e.Tag)
		case EffRecv:
			if e.Blocking && !avail.matchable(e.Tag) && all.definitelyMatches(e.Tag) {
				r.report("deadlock", e.Pos,
					"every rank blocks in %s(tag %s)%s before any rank reaches the matching Send later in this rank body — receive-before-send in uniform SPMD code hangs all ranks",
					e.Op, formatOperand(e.Tag), e.pathString())
			}
		case EffBranch:
			if stay, ok := e.earlyReturn(); ok {
				uniformScan(u, r, stay, avail, all)
			} else if e.Divergent {
				for _, arm := range e.Arms {
					collectSends(arm, avail)
				}
			} else {
				for _, arm := range e.Arms {
					uniformScan(u, r, arm, avail, all)
				}
			}
		case EffLoop:
			uniformScan(u, r, e.Body, avail, all)
		}
	}
}

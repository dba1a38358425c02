package analysis

import (
	"fmt"
	"go/ast"
	"strings"
)

// checkCollective flags rank-divergent branches whose arms execute
// different collective sequences, and rank-guarded early returns followed
// by collectives — both of which violate the SPMD contract that every
// rank calls the same collectives in the same order, and both of which
// deadlock (or worse, cross-match) at runtime.
func checkCollective(u *Unit, r *reporter) {
	funcBodies(u, func(name string, body *ast.BlockStmt) {
		scanStmtsForDivergence(u, r, body.List, nil)
	})
}

// scanStmtsForDivergence walks one statement list. tails holds, for each
// enclosing statement list, the statements that follow the current
// position — the code ranks fall through to after an early return.
func scanStmtsForDivergence(u *Unit, r *reporter, list []ast.Stmt, tails [][]ast.Stmt) {
	for i, stmt := range list {
		rest := list[i+1:]
		if ifs, ok := stmt.(*ast.IfStmt); ok {
			checkRankIf(u, r, ifs, rest, tails)
		}
		childTails := append(tails[:len(tails):len(tails)], rest)
		for _, b := range childBlocks(stmt) {
			scanStmtsForDivergence(u, r, b, childTails)
		}
	}
}

// childBlocks returns the statement lists nested directly inside stmt,
// without entering function literals.
func childBlocks(stmt ast.Stmt) [][]ast.Stmt {
	var out [][]ast.Stmt
	switch s := stmt.(type) {
	case *ast.BlockStmt:
		out = append(out, s.List)
	case *ast.IfStmt:
		out = append(out, s.Body.List)
		if s.Else != nil {
			out = append(out, childBlocks(s.Else)...)
		}
	case *ast.ForStmt:
		out = append(out, s.Body.List)
	case *ast.RangeStmt:
		out = append(out, s.Body.List)
	case *ast.SwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				out = append(out, cc.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				out = append(out, cc.Body)
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				out = append(out, cc.Body)
			}
		}
	case *ast.LabeledStmt:
		out = append(out, childBlocks(s.Stmt)...)
	}
	return out
}

// checkRankIf inspects one if statement whose condition compares ranks.
// The check compares the collective sequence each side of the rank split
// will execute from here to the end of the function: the arm's own
// collectives, plus — unless the arm leaves the function — everything
// after the if. A mismatch means some ranks run a different collective
// sequence than others, which deadlocks or cross-matches at runtime.
func checkRankIf(u *Unit, r *reporter, ifs *ast.IfStmt, rest []ast.Stmt, tails [][]ast.Stmt) {
	cmps := rankCond(ifs.Cond)
	if len(cmps) == 0 {
		return
	}
	comm := cmps[0].comm

	var later []commCall
	for _, s := range rest {
		later = append(later, collectColls(u, s, comm)...)
	}
	for _, tail := range tails {
		for _, s := range tail {
			later = append(later, collectColls(u, s, comm)...)
		}
	}

	thenSeq := collectColls(u, ifs.Body, comm)
	if !terminates(ifs.Body) {
		thenSeq = append(thenSeq, later...)
	}
	var elseSeq []commCall
	elseTerm := false
	switch e := ifs.Else.(type) {
	case *ast.BlockStmt:
		elseSeq = collectColls(u, e, comm)
		elseTerm = terminates(e)
	case *ast.IfStmt:
		elseSeq = collectColls(u, e, comm)
		elseTerm = allElseTerminates(e)
	}
	if !elseTerm {
		elseSeq = append(elseSeq, later...)
	}
	if len(thenSeq) == 0 && len(elseSeq) == 0 {
		return
	}
	if !sameOps(thenSeq, elseSeq) {
		r.report("collective", ifs.Pos(),
			"rank-divergent collective sequence: %s — every rank must execute the same collectives in the same order (sequences include calls after this if)",
			describeOpDiff(thenSeq, elseSeq))
	}
}

// allElseTerminates reports whether every path of an else (possibly an
// else-if chain) terminates, in which case no rank falls through.
func allElseTerminates(e ast.Stmt) bool {
	switch s := e.(type) {
	case *ast.BlockStmt:
		return terminates(s)
	case *ast.IfStmt:
		if !terminates(s.Body) {
			return false
		}
		if s.Else == nil {
			return false
		}
		return allElseTerminates(s.Else)
	}
	return false
}

func sameOps(a, b []commCall) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].name != b[i].name {
			return false
		}
	}
	return true
}

func describeOpDiff(thenOps, elseOps []commCall) string {
	names := func(ops []commCall) string {
		if len(ops) == 0 {
			return "none"
		}
		var ns []string
		for _, o := range ops {
			ns = append(ns, o.name)
		}
		return strings.Join(ns, ", ")
	}
	return fmt.Sprintf("then-arm calls [%s], else-arm calls [%s]", names(thenOps), names(elseOps))
}

package analysis

import (
	"go/ast"
	"go/types"
)

// This file holds the helpers shared by the performance-and-determinism
// rule family (hotalloc, rolledcoll, nondet): payload facts extracted
// from the communication summaries, and small syntactic predicates over
// payload and peer expressions. The family rides the same machinery as
// the ownership engine — the call graph, the per-function summaries and
// their Effect.Payload facts — so a buffer that escapes into a send
// three helpers away is visible at the original call site.

// sentFact records that a callee forwards a parameter into communication.
type sentFact struct {
	op   string
	coll bool
}

// payloadFacts extracts, from a function's communication summary, the
// parameters it forwards into a send or collective payload — the spliced
// fact that lets `forward(c, buf)` stand in for the send itself at the
// call site. Memoized on the unit; the ownership engine and the perf
// rules share one build.
func (u *Unit) payloadFacts(fd *ast.FuncDecl) map[string]sentFact {
	if u.sentFacts == nil {
		u.sentFacts = map[*ast.FuncDecl]map[string]sentFact{}
	}
	if facts, ok := u.sentFacts[fd]; ok {
		return facts
	}
	params := paramSet(fd)
	out := map[string]sentFact{}
	var walk func(effs []Effect)
	walk = func(effs []Effect) {
		for _, ef := range effs {
			if (ef.Kind == EffSend || ef.Kind == EffColl) && ef.Payload != "" && params[ef.Payload] {
				if _, dup := out[ef.Payload]; !dup {
					out[ef.Payload] = sentFact{op: ef.Op, coll: ef.Kind == EffColl}
				}
			}
			walk(ef.Body)
			for _, arm := range ef.Arms {
				walk(arm)
			}
		}
	}
	walk(u.summaries().funcSummary(fd).Effects)
	u.sentFacts[fd] = out
	return out
}

// mentionsIdent reports whether the node mentions an identifier by name
// (function literals excluded: a mention inside a closure is not a
// mention at this program point).
func mentionsIdent(n ast.Node, name string) bool {
	if n == nil || name == "" {
		return false
	}
	found := false
	ast.Inspect(n, func(x ast.Node) bool {
		if found {
			return false
		}
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		if id, ok := x.(*ast.Ident); ok && id.Name == name {
			found = true
		}
		return true
	})
	return found
}

// pkgSel matches a package-qualified call (pkg.Fn(...)) and returns the
// package and function names. The base identifier must resolve to an
// imported package.
func (u *Unit) pkgSel(call *ast.CallExpr) (pkg, fn string, ok bool) {
	if sel, isSel := unwrapCallFun(call).(*ast.SelectorExpr); isSel {
		if id, isID := sel.X.(*ast.Ident); isID {
			if _, isPkg := u.info.Uses[id].(*types.PkgName); isPkg {
				return id.Name, sel.Sel.Name, true
			}
		}
	}
	return "", "", false
}

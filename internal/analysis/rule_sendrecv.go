package analysis

import (
	"go/ast"
	"go/token"
	"strconv"
)

// checkSendRecv flags Send calls whose constant tag no Recv in the same
// package could ever match. Matching is deliberately package-wide — the
// manager and worker halves of a communication pattern often live in
// different functions — and a Recv with AnyTag (or a non-constant tag)
// matches everything, so only provably orphaned tags are reported.
func checkSendRecv(u *Unit, r *reporter) {
	consts := collectIntConsts(u)

	type sendSite struct {
		tag int
		pos token.Pos
	}
	var sends []sendSite
	recvTags := map[int]bool{}
	wildcardRecv := false

	for _, f := range u.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			op, ok := u.commOp(call)
			if !ok {
				return true
			}
			switch op.kind {
			case opSend:
				if v, ok := intValue(op.tag, consts); ok {
					sends = append(sends, sendSite{tag: v, pos: call.Pos()})
				}
			case opRecv:
				if v, ok := intValue(op.tag, consts); ok {
					if v == -1 { // cluster.AnyTag
						wildcardRecv = true
					} else {
						recvTags[v] = true
					}
				} else {
					wildcardRecv = true // dynamic tag: could match anything
				}
			}
			// A SendRecv matches itself: it posts the send and the receive
			// with the same tag, so it can never orphan a tag.
			return true
		})
	}

	if wildcardRecv {
		return
	}
	for _, s := range sends {
		if !recvTags[s.tag] {
			r.report("sendrecv", s.pos,
				"Send with tag %d has no matching Recv tag anywhere in this package — the message can never be received", s.tag)
		}
	}
}

// collectIntConsts resolves package-level integer constant declarations of
// the simple `name = literal` form (the shape communication tags take).
func collectIntConsts(u *Unit) map[string]int {
	out := map[string]int{}
	for _, f := range u.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) != len(vs.Names) {
					continue
				}
				for i, name := range vs.Names {
					if v, ok := intValue(vs.Values[i], nil); ok {
						out[name.Name] = v
					}
				}
			}
		}
	}
	return out
}

// intValue evaluates an expression to an integer when it is a literal, a
// negated literal, a known constant, or AnyTag/AnySource spelled via the
// cluster package.
func intValue(e ast.Expr, consts map[string]int) (int, bool) {
	switch x := e.(type) {
	case *ast.BasicLit:
		if x.Kind == token.INT {
			v, err := strconv.Atoi(x.Value)
			if err == nil {
				return v, true
			}
		}
	case *ast.UnaryExpr:
		if x.Op == token.SUB {
			if v, ok := intValue(x.X, consts); ok {
				return -v, true
			}
		}
	case *ast.Ident:
		if x.Name == "AnyTag" || x.Name == "AnySource" {
			return -1, true
		}
		if consts != nil {
			if v, ok := consts[x.Name]; ok {
				return v, true
			}
		}
	case *ast.SelectorExpr:
		if x.Sel.Name == "AnyTag" || x.Sel.Name == "AnySource" {
			return -1, true
		}
	case *ast.ParenExpr:
		return intValue(x.X, consts)
	}
	return 0, false
}

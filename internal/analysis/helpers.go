package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// rankIdentNames are bare identifiers treated as a rank value.
var rankIdentNames = map[string]bool{
	"rank": true, "myrank": true, "myRank": true, "me": true, "myID": true,
}

// isRankExpr reports whether e denotes this rank's id; comm names the
// communicator identifier when derivable ("" when not).
func isRankExpr(e ast.Expr) (comm string, ok bool) {
	switch x := e.(type) {
	case *ast.Ident:
		if rankIdentNames[x.Name] || strings.HasSuffix(x.Name, "Rank") {
			return "", true
		}
	case *ast.CallExpr:
		if sel, isSel := x.Fun.(*ast.SelectorExpr); isSel && sel.Sel.Name == "Rank" && len(x.Args) == 0 {
			if id, isID := sel.X.(*ast.Ident); isID {
				return id.Name, true
			}
			return "", true
		}
	}
	return "", false
}

// rankComparison describes one rank comparison found in an if condition.
type rankComparison struct {
	comm string      // communicator ident ("" unknown)
	op   token.Token // EQL, NEQ, LSS, ...
}

// rankCond scans a boolean condition for comparisons against the rank.
// It descends through && and || and parentheses.
func rankCond(e ast.Expr) []rankComparison {
	var out []rankComparison
	var walk func(ast.Expr)
	walk = func(e ast.Expr) {
		switch x := e.(type) {
		case *ast.ParenExpr:
			walk(x.X)
		case *ast.UnaryExpr:
			if x.Op == token.NOT {
				walk(x.X)
			}
		case *ast.BinaryExpr:
			switch x.Op {
			case token.LAND, token.LOR:
				walk(x.X)
				walk(x.Y)
			case token.EQL, token.NEQ, token.LSS, token.GTR, token.LEQ, token.GEQ:
				if comm, ok := isRankExpr(x.X); ok {
					out = append(out, rankComparison{comm: comm, op: x.Op})
				} else if comm, ok := isRankExpr(x.Y); ok {
					out = append(out, rankComparison{comm: comm, op: flipCmp(x.Op)})
				}
			}
		}
	}
	walk(e)
	return out
}

func flipCmp(op token.Token) token.Token {
	switch op {
	case token.LSS:
		return token.GTR
	case token.GTR:
		return token.LSS
	case token.LEQ:
		return token.GEQ
	case token.GEQ:
		return token.LEQ
	}
	return op // EQL, NEQ symmetric
}

// collectColls gathers, in source order, the collective calls under n that
// involve communicator comm (calls whose communicator cannot be derived
// are included; calls on a different, known communicator are not). It
// does not descend into nested function literals.
func collectColls(u *Unit, n ast.Node, comm string) []commCall {
	var out []commCall
	if n == nil {
		return nil
	}
	ast.Inspect(n, func(x ast.Node) bool {
		switch c := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if op, ok := u.commOp(c); ok && op.kind == opColl {
				if on := identName(op.comm); comm == "" || on == "" || on == comm {
					out = append(out, op)
				}
			}
		}
		return true
	})
	return out
}

// terminates reports whether the last statement of a block unconditionally
// leaves the function (return, panic, t.Fatal-style, os.Exit).
func terminates(b *ast.BlockStmt) bool {
	if b == nil || len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			return isTerminalCall(call)
		}
	}
	return false
}

func isTerminalCall(call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		n := fun.Sel.Name
		return strings.HasPrefix(n, "Fatal") || n == "Exit" || n == "Goexit" || strings.HasPrefix(n, "Skip")
	}
	return false
}

// funcBodies enumerates every function body in the unit: declarations and
// each function literal, so every closure is analyzed exactly once as its
// own scope.
func funcBodies(u *Unit, visit func(name string, body *ast.BlockStmt)) {
	for _, f := range u.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			visit(fd.Name.Name, fd.Body)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				visit("func literal", lit.Body)
			}
			return true
		})
	}
}

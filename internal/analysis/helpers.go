package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// rankIdentNames are bare identifiers treated as a rank value.
var rankIdentNames = map[string]bool{
	"rank": true, "myrank": true, "myRank": true, "me": true, "myID": true,
}

// isRankExpr reports whether e denotes this rank's id; comm names the
// communicator identifier when derivable ("" when not). A bare identifier
// named like a rank counts only when it is an integer, or when go/types
// could not type it: a string named rank is not one.
func (u *Unit) isRankExpr(e ast.Expr) (comm string, ok bool) {
	switch x := e.(type) {
	case *ast.Ident:
		if rankIdentNames[x.Name] || strings.HasSuffix(x.Name, "Rank") {
			t := u.info.TypeOf(x)
			if t == nil {
				return "", true
			}
			b, isBasic := t.Underlying().(*types.Basic)
			return "", isBasic && (b.Info()&types.IsInteger != 0 || b.Kind() == types.Invalid)
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
func (u *Unit) rankCond(e ast.Expr) []rankComparison {
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
				if comm, ok := u.isRankExpr(x.X); ok {
					out = append(out, rankComparison{comm: comm, op: x.Op})
				} else if comm, ok := u.isRankExpr(x.Y); ok {
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

// constInt returns e's value when go/types folded e to an integer
// constant: a literal, an iota or derived constant, or another package's
// constant. A variable is never one, even when it shadows a constant.
func (u *Unit) constInt(e ast.Expr) (int, bool) {
	if tv, ok := u.info.Types[e]; ok && tv.Value != nil {
		if v, exact := constant.Int64Val(constant.ToInt(tv.Value)); exact {
			return int(v), true
		}
	}
	return 0, false
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

// fileNodes lists, for each file of the unit and in ast.Inspect order,
// the nodes the whole-file scans look for: function declarations and
// literals, calls, go statements, assignments and range statements. It is
// built on first use, so a pass walks each file once however many rules
// scan it.
func (u *Unit) fileNodes() [][]ast.Node {
	if u.nodes == nil {
		u.nodes = make([][]ast.Node, len(u.Files))
		for i, f := range u.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n.(type) {
				case *ast.FuncDecl, *ast.FuncLit, *ast.CallExpr, *ast.GoStmt, *ast.AssignStmt, *ast.RangeStmt:
					u.nodes[i] = append(u.nodes[i], n)
				}
				return true
			})
		}
	}
	return u.nodes
}

// funcBodies enumerates every function body in the unit: declarations and
// each function literal, so every closure is analyzed exactly once as its
// own scope.
func funcBodies(u *Unit, visit func(name string, body *ast.BlockStmt)) {
	for i, f := range u.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			visit(fd.Name.Name, fd.Body)
		}
		for _, n := range u.fileNodes()[i] {
			if lit, ok := n.(*ast.FuncLit); ok {
				visit("func literal", lit.Body)
			}
		}
	}
}

package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Collective vocabulary of the cluster substrate. Methods are matched on
// any receiver identifier; functions take the communicator as their first
// argument (cluster.Bcast(c, ...) or, inside package cluster and its
// tests, bare Bcast(c, ...)).
var collectiveMethods = map[string]bool{
	"Barrier": true, "Split": true,
}

var collectiveFuncs = map[string]bool{
	"Bcast": true, "Reduce": true, "Allreduce": true, "Gather": true,
	"Allgather": true, "Scatter": true, "Alltoall": true, "Scan": true,
}

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

// collCall describes a collective call site.
type collCall struct {
	name string
	comm string // communicator ident ("" unknown)
	pos  token.Pos
}

// asCollective classifies a call expression as a collective, if it is one.
func asCollective(call *ast.CallExpr) (collCall, bool) {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		if collectiveMethods[fun.Sel.Name] && len(call.Args) <= 2 {
			if id, ok := fun.X.(*ast.Ident); ok {
				return collCall{name: fun.Sel.Name, comm: id.Name, pos: call.Pos()}, true
			}
			return collCall{name: fun.Sel.Name, pos: call.Pos()}, true
		}
		if collectiveFuncs[fun.Sel.Name] && len(call.Args) > 0 {
			return collCall{name: fun.Sel.Name, comm: firstArgIdent(call), pos: call.Pos()}, true
		}
	case *ast.Ident:
		// Bare call: inside package cluster or with a dot import.
		if collectiveFuncs[fun.Name] && len(call.Args) > 0 {
			return collCall{name: fun.Name, comm: firstArgIdent(call), pos: call.Pos()}, true
		}
	case *ast.IndexExpr: // explicit instantiation: Bcast[T](c, ...)
		inner := &ast.CallExpr{Fun: fun.X, Args: call.Args}
		return asCollective(inner)
	case *ast.IndexListExpr:
		inner := &ast.CallExpr{Fun: fun.X, Args: call.Args}
		return asCollective(inner)
	}
	return collCall{}, false
}

func firstArgIdent(call *ast.CallExpr) string {
	if len(call.Args) == 0 {
		return ""
	}
	if id, ok := call.Args[0].(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// collectColls gathers, in source order, the collective calls under n that
// involve communicator comm (calls whose communicator cannot be derived
// are included; calls on a different, known communicator are not). It
// does not descend into nested function literals.
func collectColls(u *Unit, n ast.Node, comm string) []collCall {
	var out []collCall
	if n == nil {
		return nil
	}
	ast.Inspect(n, func(x ast.Node) bool {
		switch c := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if cc, ok := asCollective(c); ok && u.clusterCall(c) {
				// clusterCall screens out namesakes from other packages
				// (strings.Split is not a communicator split).
				if comm == "" || cc.comm == "" || cc.comm == comm {
					out = append(out, cc)
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

// clusterCall reports whether a collective- or comm-named call plausibly
// targets the cluster vocabulary rather than an unrelated function that
// shares a name (par.Reduce, a local Send helper, ...). Package-qualified
// calls must come through a package named "cluster"; bare free-function
// calls must hand a communicator-typed first argument when types resolve.
// Method calls and calls with unresolved types pass — the syntactic rules
// (collective, protocol) keep their lenient matching; only the
// type-driven ownership and wire-safety rules consult this.
func (u *Unit) clusterCall(call *ast.CallExpr) bool {
	if sel, ok := unwrapCallFun(call).(*ast.SelectorExpr); ok {
		if id, ok := sel.X.(*ast.Ident); ok && u.info != nil {
			if _, isPkg := u.info.Uses[id].(*types.PkgName); isPkg {
				return id.Name == "cluster"
			}
		}
		return true // method call on a value (c.Barrier and friends)
	}
	if u.info == nil || len(call.Args) == 0 {
		return true
	}
	t := u.info.TypeOf(call.Args[0])
	if t == nil {
		return true
	}
	if b, ok := t.(*types.Basic); ok && b.Kind() == types.Invalid {
		return true // unresolved cross-package type: stay lenient
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	return ok && named.Obj().Name() == "Comm"
}

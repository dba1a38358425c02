package analysis

import (
	"go/ast"
	"go/types"
)

// This file is the one place that decides whether a call is cluster
// communication: every rule asks commOp, and none matches the names itself.

// opKind is what a communication call does.
type opKind uint8

const (
	opColl     opKind = iota // a collective: every rank of the communicator calls it
	opSend                   // a point-to-point send (non-blocking, eager)
	opRecv                   // a point-to-point receive
	opSendRecv               // a paired exchange: a send, then a receive with the same tag
)

// commSpec is one entry of the vocabulary. It mirrors the runtime's
// signature, and TestVocabularyMatchesCluster holds the two together.
type commSpec struct {
	kind      opKind
	method    bool // a method of *Comm; otherwise a function taking *Comm first
	args      int  // the signature's parameter count, receiver excluded
	payloadAt int  // the payload parameter's position, -1 when there is none
}

// vocabulary is internal/cluster's communication API: its collectives and
// its point-to-point operations.
var vocabulary = map[string]commSpec{
	"Barrier":   {opColl, true, 0, -1},
	"Split":     {opColl, true, 2, -1},     // (color, key)
	"Bcast":     {opColl, false, 3, 2},     // (c, root, v)
	"Reduce":    {opColl, false, 4, 2},     // (c, root, v, op)
	"Allreduce": {opColl, false, 3, 1},     // (c, v, op)
	"Gather":    {opColl, false, 3, 2},     // (c, root, v)
	"Allgather": {opColl, false, 2, 1},     // (c, v)
	"Scatter":   {opColl, false, 3, 2},     // (c, root, parts)
	"Alltoall":  {opColl, false, 2, 1},     // (c, parts)
	"Scan":      {opColl, false, 3, 1},     // (c, v, op)
	"Send":      {opSend, false, 4, 3},     // (c, dst, tag, v)
	"Recv":      {opRecv, false, 3, -1},    // (c, src, tag)
	"RecvFrom":  {opRecv, false, 3, -1},    // (c, src, tag)
	"TryRecv":   {opRecv, false, 3, -1},    // (c, src, tag)
	"SendRecv":  {opSendRecv, false, 4, 3}, // (c, partner, tag, v)
}

// commCall is one classified communication call.
type commCall struct {
	name    string
	kind    opKind
	comm    ast.Expr // the receiver of a method, the first argument of a function
	peer    ast.Expr // destination of a send, source of a receive; nil for a collective
	tag     ast.Expr // nil for a collective
	payload ast.Expr // nil when the op carries none
}

// commOp classifies a call as a cluster communication op.
//
// The call must name a vocabulary entry and pass exactly the entry's
// argument count. When go/types knows the callee's signature, the callee
// must also be a method of a Comm (Barrier, Split) or take a Comm first,
// so strings.Split, the Send method of a mail queue or a func-valued
// field named Reduce is not an op. A callee go/types cannot type matches
// by name and arity alone, except that a qualified call through an
// unresolved package must name package cluster.
func (u *Unit) commOp(call *ast.CallExpr) (commCall, bool) {
	var id *ast.Ident
	var recv ast.Expr
	switch fun := unwrapCallFun(call).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id, recv = fun.Sel, fun.X
	default:
		return commCall{}, false
	}
	spec, ok := vocabulary[id.Name]
	if !ok || len(call.Args) != spec.args || spec.method && recv == nil {
		return commCall{}, false
	}
	var sig *types.Signature
	if obj := u.info.Uses[id]; obj != nil {
		sig, _ = obj.Type().Underlying().(*types.Signature)
	}
	if sig != nil {
		if spec.method && (sig.Recv() == nil || !isCommType(sig.Recv().Type())) ||
			!spec.method && (sig.Params().Len() == 0 || !isCommType(sig.Params().At(0).Type())) {
			return commCall{}, false
		}
	} else if x, ok := recv.(*ast.Ident); ok {
		if _, isPkg := u.info.Uses[x].(*types.PkgName); isPkg && x.Name != "cluster" {
			return commCall{}, false
		}
	}
	op := commCall{name: id.Name, kind: spec.kind, comm: recv}
	if !spec.method {
		op.comm = call.Args[0]
	}
	if spec.kind != opColl {
		op.peer, op.tag = call.Args[1], call.Args[2]
	}
	if spec.payloadAt >= 0 {
		op.payload = call.Args[spec.payloadAt]
	}
	return op, true
}

// receives reports whether the op waits for a message: a receive, or the
// receive half of a SendRecv.
func (k opKind) receives() bool { return k == opRecv || k == opSendRecv }

// isCommType reports whether t is Comm or a pointer to it. The package is
// not checked: the fixtures declare their own Comm.
func isCommType(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	return ok && named.Obj().Name() == "Comm"
}

// callName returns the name a call invokes: f in f(...), or in x.f(...)
// when x is an identifier (a package or a variable). Any other callee
// yields "".
func callName(call *ast.CallExpr) string {
	switch fun := unwrapCallFun(call).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		if _, ok := fun.X.(*ast.Ident); ok {
			return fun.Sel.Name
		}
	}
	return ""
}

// identName returns the name of an identifier expression, or "".
func identName(e ast.Expr) string {
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

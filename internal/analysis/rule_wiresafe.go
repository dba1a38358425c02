package analysis

import (
	"go/ast"
	"go/types"
)

// checkWireSafe is the serializability half of the wire-safety pass. It
// applies the encodability lattice (encodable.go) to every payload
// expression reaching a Send or collective: channels, function values,
// sync primitives, unsafe.Pointer and unexported struct fields all work
// by accident on the in-process transport (which passes pointers) and
// break the moment a network Device has to encode the value. Two further
// checks police the Cloner contract the collectives' snapshot path
// relies on: Allreduce payloads that contain shared references but
// implement no CloneWire, and CloneWire implementations that return
// shallow copies.
func checkWireSafe(u *Unit, r *reporter) {
	for _, nodes := range u.fileNodes() {
		for _, n := range nodes {
			switch x := n.(type) {
			case *ast.CallExpr:
				u.wireCheckCall(x, r)
			case *ast.FuncDecl:
				u.wireCheckCloner(x, r)
			}
		}
	}
}

// wireCheckCall applies the lattice to one payload site.
func (u *Unit) wireCheckCall(call *ast.CallExpr, r *reporter) {
	op, ok := u.commOp(call)
	if !ok || op.payload == nil {
		return
	}
	t := u.info.TypeOf(op.payload)
	if t == nil {
		return
	}
	if v := u.wireSafety(t); v.class == wireBad {
		r.report("wiresafe", op.payload.Pos(),
			"payload of %s has wire-unsafe type %s: %s — a network transport cannot encode it (works in-process only by pointer passing)",
			op.name, types.TypeString(t, relativeTo(u.typesPkg)), v.reason)
		return
	}
	// Allreduce snapshots each contribution via clonePayload; a payload
	// carrying references with no CloneWire gets a shallow snapshot, so
	// concurrent reduction steps observe each other's mutations.
	if op.name == "Allreduce" &&
		u.hasReferenceParts(t, true) && !hasCloneWire(t) {
		r.report("wiresafe", op.payload.Pos(),
			"Allreduce payload type %s contains shared references but implements no CloneWire; the reduction cannot snapshot contributions — implement cluster.Cloner or use a flat payload",
			types.TypeString(t, relativeTo(u.typesPkg)))
	}
}

// wireCheckCloner flags CloneWire implementations whose clone shares
// memory with the receiver: returning the receiver itself, or building a
// composite literal that copies a reference-typed field bare.
func (u *Unit) wireCheckCloner(fd *ast.FuncDecl, r *reporter) {
	if fd.Name.Name != "CloneWire" || fd.Recv == nil || fd.Body == nil {
		return
	}
	if fd.Type.Params.NumFields() != 0 || fd.Type.Results.NumFields() != 1 {
		return
	}
	if len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return
	}
	recvName := fd.Recv.List[0].Names[0].Name
	recvType := u.info.TypeOf(fd.Recv.List[0].Type)
	_, ptrRecv := fd.Recv.List[0].Type.(*ast.StarExpr)
	elem := recvType
	if p, ok := elem.(*types.Pointer); ok && p != nil {
		elem = p.Elem()
	}
	refParts := elem != nil && u.hasReferenceParts(elem, false)

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || len(ret.Results) != 1 {
			return true
		}
		switch res := stripParens(ret.Results[0]).(type) {
		case *ast.Ident:
			if res.Name == recvName && (ptrRecv || refParts) {
				what := "all of the receiver's memory"
				if ptrRecv {
					what = "the receiver itself"
				}
				r.report("wiresafe", ret.Pos(),
					"CloneWire returns %s — the clone is not an independent copy; rebuild the value and deep-copy its reference fields", what)
			}
		case *ast.UnaryExpr, *ast.StarExpr:
			if name, ok := baseIdent(res); ok && name == recvName && refParts {
				r.report("wiresafe", ret.Pos(),
					"CloneWire returns a shallow copy of the receiver; its reference fields still share memory — deep-copy them")
			}
		case *ast.CompositeLit:
			for _, el := range res.Elts {
				val := el
				fieldName := ""
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					val = kv.Value
					if id, ok := kv.Key.(*ast.Ident); ok {
						fieldName = id.Name
					}
				}
				sel, ok := stripParens(val).(*ast.SelectorExpr)
				if !ok {
					continue
				}
				base, ok := sel.X.(*ast.Ident)
				if !ok || base.Name != recvName {
					continue
				}
				if fieldName == "" {
					fieldName = sel.Sel.Name
				}
				ft := u.info.TypeOf(sel)
				if ft != nil && u.hasReferenceParts(ft, false) {
					r.report("wiresafe", ret.Pos(),
						"CloneWire copies field %s shallowly; the clone shares its backing memory — deep-copy it", fieldName)
					break
				}
			}
		}
		return true
	})
}

func stripParens(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// relativeTo renders type names without the package path for in-package
// types, matching how the code under analysis spells them.
func relativeTo(pkg *types.Package) types.Qualifier {
	if pkg == nil {
		return nil
	}
	return types.RelativeTo(pkg)
}

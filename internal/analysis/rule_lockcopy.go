package analysis

import (
	"go/ast"
	"go/types"
)

// checkLockCopy flags sync.Mutex, sync.RWMutex, sync.WaitGroup, sync.Cond
// and sync.Once values — or structs containing them — copied by value:
// value receivers, value parameters, plain assignments and range copies. A
// copied lock is a distinct lock, which silently destroys the mutual
// exclusion (and for WaitGroup, the join) it was supposed to provide.
func checkLockCopy(u *Unit, r *reporter) {
	info := u.info

	// TypeOf consults Types, Defs and Uses, covering range-value idents
	// (which only appear in Defs).
	exprType := func(e ast.Expr) types.Type {
		return info.TypeOf(e)
	}

	// isCopySource: expressions that read an existing value (copying it),
	// as opposed to creating a fresh one (composite literal, call result).
	isCopySource := func(e ast.Expr) bool {
		switch e.(type) {
		case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr, *ast.ParenExpr:
			return true
		}
		return false
	}

	for fi, f := range u.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			var fields []*ast.Field
			if fd.Recv != nil {
				fields = append(fields, fd.Recv.List...)
			}
			if fd.Type.Params != nil {
				fields = append(fields, fd.Type.Params.List...)
			}
			for _, field := range fields {
				t := exprType(field.Type)
				if t == nil {
					continue
				}
				if _, isPtr := t.Underlying().(*types.Pointer); isPtr {
					continue
				}
				if lockName := containsLock(t, nil); lockName != "" {
					what := "parameter"
					if fd.Recv != nil && len(fd.Recv.List) > 0 && field == fd.Recv.List[0] {
						what = "receiver"
					}
					r.report("lockcopy", field.Pos(),
						"%s of %s passes %s by value in %s: the copy is a different lock — use a pointer", what, fd.Name.Name, lockName, typeString(t))
				}
			}
		}

		for _, n := range u.fileNodes()[fi] {
			switch x := n.(type) {
			case *ast.AssignStmt:
				for i, rhs := range x.Rhs {
					if len(x.Rhs) != len(x.Lhs) {
						break
					}
					if !isCopySource(rhs) {
						continue
					}
					t := exprType(rhs)
					if t == nil {
						continue
					}
					if lockName := containsLock(t, nil); lockName != "" {
						_ = i
						r.report("lockcopy", x.Pos(),
							"assignment copies %s (in %s) by value: the copy is a different lock — use a pointer", lockName, typeString(t))
					}
				}
			case *ast.RangeStmt:
				if x.Value == nil {
					continue
				}
				t := exprType(x.Value)
				if t == nil {
					continue
				}
				if lockName := containsLock(t, nil); lockName != "" {
					r.report("lockcopy", x.Value.Pos(),
						"range copies %s (in %s) by value per element: iterate by index or store pointers", lockName, typeString(t))
				}
			case *ast.CallExpr:
				sig, ok := exprType(x.Fun).(*types.Signature)
				if !ok {
					continue
				}
				for i, arg := range x.Args {
					// A type argument, as in new(sync.Mutex), copies nothing.
					if !isCopySource(arg) || info.Types[arg].IsType() {
						continue
					}
					pt := paramType(sig, i)
					if pt == nil {
						continue
					}
					if _, isPtr := pt.Underlying().(*types.Pointer); isPtr {
						continue
					}
					if lockName := containsLock(pt, nil); lockName != "" {
						r.report("lockcopy", arg.Pos(),
							"call passes %s (in %s) by value: the callee gets a different lock — pass a pointer", lockName, typeString(pt))
					}
				}
			}
		}
	}
}

func paramType(sig *types.Signature, i int) types.Type {
	params := sig.Params()
	if params == nil {
		return nil
	}
	n := params.Len()
	if n == 0 {
		return nil
	}
	if sig.Variadic() && i >= n-1 {
		last := params.At(n - 1).Type()
		if sl, ok := last.(*types.Slice); ok {
			return sl.Elem()
		}
		return nil
	}
	if i >= n {
		return nil
	}
	return params.At(i).Type()
}

// containsLock reports the name of the sync primitive a type carries by
// value ("" when none). seen guards against recursive types.
func containsLock(t types.Type, seen map[types.Type]bool) string {
	if t == nil {
		return ""
	}
	if seen == nil {
		seen = map[types.Type]bool{}
	}
	if seen[t] {
		return ""
	}
	seen[t] = true
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "sync" {
			switch obj.Name() {
			case "Mutex", "RWMutex", "WaitGroup", "Cond", "Once", "Map", "Pool":
				return "sync." + obj.Name()
			}
		}
		return containsLock(named.Underlying(), seen)
	}
	switch x := t.(type) {
	case *types.Struct:
		for i := 0; i < x.NumFields(); i++ {
			if name := containsLock(x.Field(i).Type(), seen); name != "" {
				return name
			}
		}
	case *types.Array:
		return containsLock(x.Elem(), seen)
	}
	return ""
}

func typeString(t types.Type) string {
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}

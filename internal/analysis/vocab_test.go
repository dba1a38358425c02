package analysis

import (
	"go/types"
	"path/filepath"
	"strings"
	"testing"
)

// TestVocabularyMatchesCluster holds the vocabulary to the runtime it
// describes. Each entry must be a method of *Comm or a function taking
// *Comm first, with the entry's parameter count and its payload position
// at the `v T` or `parts []T` parameter. Every exported function of
// internal/cluster that takes *Comm first must be an entry, so a
// collective added to the runtime without the analyzer knowing it fails
// here.
func TestVocabularyMatchesCluster(t *testing.T) {
	units, err := Load([]string{filepath.Join("..", "cluster")})
	if err != nil {
		t.Fatal(err)
	}
	var u *Unit
	for _, cand := range units {
		if cand.Name == "cluster" {
			u = cand
		}
	}
	if u == nil {
		t.Fatal("internal/cluster did not load")
	}
	u.ensureTypes()
	pkg := u.typesPkg
	comm, ok := pkg.Scope().Lookup("Comm").(*types.TypeName)
	if !ok {
		t.Fatal("internal/cluster declares no Comm type")
	}
	commPtr := types.NewPointer(comm.Type())
	takesComm := func(sig *types.Signature) bool {
		return sig.Params().Len() > 0 && types.Identical(sig.Params().At(0).Type(), commPtr)
	}

	for name, spec := range vocabulary {
		var obj types.Object
		if spec.method {
			obj, _, _ = types.LookupFieldOrMethod(commPtr, true, pkg, name)
		} else {
			obj = pkg.Scope().Lookup(name)
		}
		fn, ok := obj.(*types.Func)
		if !ok {
			t.Errorf("%s: internal/cluster has no such function or *Comm method", name)
			continue
		}
		sig := fn.Type().(*types.Signature)
		if !spec.method && !takesComm(sig) {
			t.Errorf("%s: cluster.%s does not take *Comm first", name, name)
			continue
		}
		params := sig.Params()
		if params.Len() != spec.args {
			t.Errorf("%s: the vocabulary says %d arguments, the runtime takes %d", name, spec.args, params.Len())
			continue
		}
		for i := 0; i < params.Len(); i++ {
			if isPayloadParam(params.At(i)) != (i == spec.payloadAt) {
				t.Errorf("%s: the vocabulary's payload position is %d, but parameter %d is %s",
					name, spec.payloadAt, i, params.At(i))
			}
		}
	}

	for _, name := range pkg.Scope().Names() {
		fn, ok := pkg.Scope().Lookup(name).(*types.Func)
		if !ok || !fn.Exported() || strings.HasSuffix(u.Fset.Position(fn.Pos()).Filename, "_test.go") {
			continue
		}
		if spec, known := vocabulary[name]; takesComm(fn.Type().(*types.Signature)) && (!known || spec.method) {
			t.Errorf("cluster.%s takes *Comm first but is not in the vocabulary", name)
		}
	}
}

// isPayloadParam reports whether p is the data a communication op
// carries: `v T` or `parts []T`, T a type parameter.
func isPayloadParam(p *types.Var) bool {
	switch p.Name() {
	case "v":
		_, ok := p.Type().(*types.TypeParam)
		return ok
	case "parts":
		s, ok := p.Type().(*types.Slice)
		if !ok {
			return false
		}
		_, ok = s.Elem().(*types.TypeParam)
		return ok
	}
	return false
}

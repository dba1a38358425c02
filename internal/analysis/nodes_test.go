package analysis

import (
	"go/ast"
	"path/filepath"
	"slices"
	"testing"
)

// fixtureUnits loads every package under testdata/src.
func fixtureUnits(t *testing.T) []*Unit {
	t.Helper()
	units, err := Load([]string{filepath.Join("testdata", "src") + "/..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(units) < 10 {
		t.Fatalf("only %d fixture units loaded", len(units))
	}
	return units
}

// TestLoadSkipsObjectResolution pins the parse mode: names resolve
// through go/types alone, so no file carries the parser's ast.Object
// scopes.
func TestLoadSkipsObjectResolution(t *testing.T) {
	for _, u := range fixtureUnits(t) {
		for _, f := range u.Files {
			if f.Scope != nil || len(f.Unresolved) != 0 {
				t.Errorf("%s: parsed with object resolution (%d unresolved names)",
					u.Fset.Position(f.Pos()).Filename, len(f.Unresolved))
			}
		}
	}
}

// TestFileNodesMatchInspect pins the node list the whole-file scans share:
// for every fixture file it is ast.Inspect's preorder, filtered to the
// kinds those scans look for.
func TestFileNodesMatchInspect(t *testing.T) {
	total := 0
	for _, u := range fixtureUnits(t) {
		nodes := u.fileNodes()
		if len(nodes) != len(u.Files) {
			t.Fatalf("%s: %d node lists for %d files", u.Rel, len(nodes), len(u.Files))
		}
		for i, f := range u.Files {
			var want []ast.Node
			ast.Inspect(f, func(n ast.Node) bool {
				switch n.(type) {
				case *ast.FuncDecl, *ast.FuncLit, *ast.CallExpr, *ast.GoStmt, *ast.AssignStmt, *ast.RangeStmt:
					want = append(want, n)
				}
				return true
			})
			if !slices.Equal(nodes[i], want) {
				t.Errorf("%s: node list has %d nodes, ast.Inspect finds %d",
					u.Fset.Position(f.Pos()).Filename, len(nodes[i]), len(want))
			}
			total += len(want)
		}
	}
	if total == 0 {
		t.Fatal("no fixture file holds a listed node")
	}
}

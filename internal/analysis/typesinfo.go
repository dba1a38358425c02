package analysis

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/token"
	"go/types"
	"os"
	pathpkg "path"
	"path/filepath"
	"strings"
	"sync"
)

// lenientImporter resolves the imports of one Load without starting the
// go command, so each package of a run is type-checked exactly once:
//
//   - A module is the go.mod nearest above a loaded directory. An import
//     path equal to a module's path, or below it, names the matching
//     directory under that module's root, and that directory's non-_test
//     unit is the package: the same *types.Package the unit's own
//     analysis uses, checked by ensureTypes under its import path. A
//     directory the patterns left out is parsed the first time something
//     imports it; it is type-checked but not analyzed.
//   - A path naming a directory under $GOROOT/src comes from stdUniverse,
//     type-checked from source, so sync.Mutex et al. carry real type
//     information. go/build runs `go list` for any other path, so no
//     other path reaches it.
//   - Everything else is an empty, complete placeholder package, and so
//     is a unit whose check is still running (an import cycle in broken
//     code). Rules that consult types must tolerate missing info.
//
// Load makes one per call and hands it to every unit it returns, so the
// module units and their FileSet go away with the units.
type lenientImporter struct {
	fset     *token.FileSet
	src      types.Importer     // stdUniverse
	wd       string             // working directory, to make loaded directories absolute
	stdRoot  string             // $GOROOT/src, "" when GOROOT is unknown
	modules  map[string]string  // module path -> root, for every loaded directory's go.mod
	near     map[string]module  // directory -> the module of the go.mod nearest above it
	units    map[string][]*Unit // absolute directory -> its units, loaded or imported
	fallback map[string]*types.Package
}

// module is one go.mod: the path it declares and the directory holding it.
type module struct{ path, root string }

// stdUniverse is the process's one standard library: a source importer
// with a FileSet of its own, shared by every Load, so a process
// type-checks each std package it meets once however many Loads it runs.
// It lives as long as the process, bounded by the std packages loaded
// code imports. No finding formats a std object's position, so none
// needs this FileSet.
var stdUniverse types.Importer = &lockedImporter{imp: importer.ForCompiler(token.NewFileSet(), "source", nil)}

// lockedImporter serializes an importer that is not safe for concurrent
// use. The packages it returns are complete, and concurrent type checks
// only read them. It keeps every package imp returned without error, by
// path, and answers a repeat import from there: the source importer scans
// the package's directory with go/build on every Import, milliseconds for
// a std package, before it looks in its own cache.
type lockedImporter struct {
	mu   sync.Mutex
	imp  types.Importer
	pkgs map[string]*types.Package
}

func (l *lockedImporter) Import(path string) (*types.Package, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	pkg, err := l.imp.Import(path)
	if err == nil {
		if l.pkgs == nil {
			l.pkgs = map[string]*types.Package{}
		}
		l.pkgs[path] = pkg
	}
	return pkg, err
}

func newLenientImporter(fset *token.FileSet) *lenientImporter {
	li := &lenientImporter{
		fset:     fset,
		src:      stdUniverse,
		modules:  map[string]string{},
		near:     map[string]module{},
		units:    map[string][]*Unit{},
		fallback: map[string]*types.Package{},
	}
	li.wd, _ = os.Getwd() // fails only when the directory is gone, and relative loads with it
	if build.Default.GOROOT != "" {
		li.stdRoot = filepath.Join(build.Default.GOROOT, "src")
	}
	return li
}

// load parses dir once per run and returns its units with their import
// paths set, along with the directory's module.
func (li *lenientImporter) load(dir string) ([]*Unit, module) {
	abs := dir
	if !filepath.IsAbs(abs) {
		abs = filepath.Join(li.wd, dir)
	}
	mod := li.moduleAbove(abs)
	if units, ok := li.units[abs]; ok {
		return units, mod
	}
	units := loadDir(li.fset, li, dir)
	for _, u := range units {
		u.path = u.Rel
		if mod.path != "" {
			u.path = mod.path
			if rel, _ := filepath.Rel(mod.root, abs); rel != "." {
				u.path += "/" + filepath.ToSlash(rel)
			}
		}
		if strings.HasSuffix(u.Name, "_test") {
			u.path += "_test" // an external test package, as the go tool names it
		}
	}
	li.units[abs] = units
	return units, mod
}

// moduleAbove returns the module of the go.mod nearest above dir, and
// remembers it for dir and every directory it passed on the way up, so
// sibling directories cost one lookup each. The zero module means there
// is none, or it declares no module path.
func (li *lenientImporter) moduleAbove(dir string) module {
	if mod, ok := li.near[dir]; ok {
		return mod
	}
	var mod module
	if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
		mod = module{path: modulePath(data), root: dir}
	} else if parent := filepath.Dir(dir); parent != dir {
		mod = li.moduleAbove(parent)
	}
	li.near[dir] = mod
	return mod
}

// modulePath returns the path a go.mod's module directive declares.
func modulePath(gomod []byte) string {
	for _, line := range strings.Split(string(gomod), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "module" {
			return strings.Trim(f[1], "\"`")
		}
	}
	return ""
}

func (li *lenientImporter) Import(path string) (*types.Package, error) {
	if path != pathpkg.Clean(path) || build.IsLocalImport(path) || pathpkg.IsAbs(path) {
		return li.placeholder(path), nil // not a path a go.mod or GOROOT resolves
	}
	if dir, ok := li.moduleDir(path); ok {
		units, _ := li.load(dir)
		for _, u := range units {
			if len(u.Files) == 0 || strings.HasSuffix(u.Name, "_test") {
				continue
			}
			if u.typesOnce && u.typesPkg == nil {
				break // still being checked: an import cycle
			}
			u.ensureTypes()
			return u.typesPkg, nil
		}
	} else if li.stdRoot != "" {
		if fi, err := os.Stat(filepath.Join(li.stdRoot, filepath.FromSlash(path))); err == nil && fi.IsDir() {
			if pkg, err := li.src.Import(path); err == nil {
				return pkg, nil
			}
		}
	}
	return li.placeholder(path), nil
}

// moduleDir maps an import path to its directory under the root of the
// longest module path that equals it or is a prefix of it.
func (li *lenientImporter) moduleDir(path string) (string, bool) {
	for prefix := path; prefix != "."; prefix = pathpkg.Dir(prefix) {
		if root, ok := li.modules[prefix]; ok {
			return filepath.Join(root, filepath.FromSlash(strings.TrimPrefix(path, prefix))), true
		}
	}
	return "", false
}

func (li *lenientImporter) placeholder(path string) *types.Package {
	if pkg, ok := li.fallback[path]; ok {
		return pkg
	}
	pkg := types.NewPackage(path, pathpkg.Base(path))
	pkg.MarkComplete()
	li.fallback[path] = pkg
	return pkg
}

// ensureTypes runs go/types over the unit with every error tolerated.
// Partial information is expected: expressions whose types could not be
// resolved simply have no entry in info.Types.
func (u *Unit) ensureTypes() {
	if u.typesOnce {
		return
	}
	u.typesOnce = true
	conf := types.Config{
		Importer:         u.imp,
		Error:            func(error) {}, // collect nothing; partial info is fine
		IgnoreFuncBodies: false,
		FakeImportC:      true,
	}
	// Size the maps from the source, so go/types does not regrow them as
	// it fills them. The divisors are source bytes per entry, the larger
	// of this repository's and the analyzer fixtures' ratios, so no map
	// starts much larger than it ends.
	size := 0
	for _, f := range u.Files {
		size += u.Fset.File(f.Pos()).Size()
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue, size/13),
		Defs:       make(map[*ast.Ident]types.Object, size/70),
		Uses:       make(map[*ast.Ident]types.Object, size/25),
		Selections: make(map[*ast.SelectorExpr]*types.Selection, size/500),
	}
	pkg, _ := conf.Check(u.path, u.Fset, u.Files, info) // errors intentionally ignored
	u.info = info
	u.typesPkg = pkg
}

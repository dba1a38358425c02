package analysis

import (
	"go/ast"
	"go/parser"
	"go/scanner"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Unit is one parsed package (all files sharing a package name in one
// directory). Test files form their own unit when they use the _test
// package name; in-package _test.go files are analyzed with the package.
type Unit struct {
	Dir   string // directory holding the files
	Rel   string // Dir relative to the load root, slash-separated
	Name  string // package name
	Fset  *token.FileSet
	Files []*ast.File

	// LoadErrs records files of this package that failed to parse, as
	// findings with the reserved rule "load". The package is still
	// analyzed with whatever parsed — a broken file must surface as a
	// diagnostic, not silently shrink the analysis.
	LoadErrs []Finding

	cfg        Config
	allowLines map[string]map[int]map[string]bool // file -> line -> rules

	sums *summarizer  // interprocedural summaries, built on demand
	muts *mutAnalyzer // parameter-mutation summaries, built on demand

	// sentFacts memoizes per-callee payload facts (perf.go), shared by
	// the ownership engine and the performance rules.
	sentFacts map[*ast.FuncDecl]map[string]sentFact

	wireCache map[types.Type]wireVerdict // encodability verdicts per type

	ownOnce  bool         // ownership dataflow ran (shared by two rules)
	ownFinds []ownFinding // its raw findings, filtered per enabled rule

	imp       *lenientImporter // shared by every unit of one Load
	typesOnce bool
	info      *types.Info
	typesPkg  *types.Package
}

// Load expands the given patterns into package units. A pattern ending in
// "/..." walks the directory tree; anything else is a single directory.
// Directories named testdata, vendor, out or starting with "." or "_" are
// skipped, as the go tool does.
func Load(patterns []string) ([]*Unit, error) {
	var dirs []string
	seen := map[string]bool{}
	for _, pat := range patterns {
		root := strings.TrimSuffix(pat, "...")
		root = strings.TrimSuffix(root, "/")
		if root == "" {
			root = "."
		}
		if !strings.HasSuffix(pat, "...") {
			if !seen[root] {
				seen[root] = true
				dirs = append(dirs, root)
			}
			continue
		}
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			base := filepath.Base(path)
			if path != root && (strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_") ||
				base == "testdata" || base == "vendor" || base == "out" || base == "node_modules") {
				return filepath.SkipDir
			}
			if !seen[path] {
				seen[path] = true
				dirs = append(dirs, path)
			}
			return nil
		})
		if err != nil {
			// An unwalkable root must not abort the whole run: the other
			// patterns' findings still matter (and in -json/-sarif mode an
			// aborted run would emit no document at all). Surface it as a
			// load finding on a synthetic unit; the CLI maps it to exit 2.
			if !seen[root] {
				seen[root] = true
				dirs = append(dirs, root)
			}
		}
	}
	sort.Strings(dirs)

	fset := token.NewFileSet()
	imp := newLenientImporter(fset)
	var units []*Unit
	for _, dir := range dirs {
		units = append(units, loadDir(fset, imp, dir)...)
	}
	return units, nil
}

// loadDir parses every .go file in dir and groups them by package name.
// Neither an unreadable directory nor a file that fails to parse aborts
// the load: the error becomes a load-error finding on the directory's
// unit (a synthetic unit when nothing in the directory parses), the
// parsed remainder is analyzed normally, and the CLI maps the finding to
// exit code 2 — so machine-readable modes always emit a document with
// every finding the run did produce.
func loadDir(fset *token.FileSet, imp *lenientImporter, dir string) []*Unit {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return []*Unit{{
			Dir:        dir,
			Rel:        filepath.ToSlash(filepath.Clean(dir)),
			Name:       "(unreadable)",
			Fset:       fset,
			imp:        imp,
			allowLines: map[string]map[int]map[string]bool{},
			LoadErrs: []Finding{{
				Pos:  token.Position{Filename: filepath.ToSlash(dir), Line: 1, Column: 1},
				Rule: "load",
				Msg:  "directory is not readable: " + err.Error(),
			}},
		}}
	}
	byPkg := map[string][]*ast.File{}
	var loadErrs []Finding
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			loadErrs = append(loadErrs, loadErrFinding(path, err))
			continue
		}
		name := f.Name.Name
		byPkg[name] = append(byPkg[name], f)
	}
	var names []string
	for name := range byPkg {
		names = append(names, name)
	}
	sort.Strings(names)
	var units []*Unit
	for _, name := range names {
		u := &Unit{
			Dir:        dir,
			Rel:        filepath.ToSlash(filepath.Clean(dir)),
			Name:       name,
			Fset:       fset,
			imp:        imp,
			Files:      byPkg[name],
			allowLines: map[string]map[int]map[string]bool{},
		}
		for _, f := range u.Files {
			u.indexAllows(f)
		}
		units = append(units, u)
	}
	if len(loadErrs) > 0 {
		if len(units) == 0 {
			units = append(units, &Unit{
				Dir:        dir,
				Rel:        filepath.ToSlash(filepath.Clean(dir)),
				Name:       "(unparsed)",
				Fset:       fset,
				imp:        imp,
				allowLines: map[string]map[int]map[string]bool{},
			})
		}
		units[0].LoadErrs = append(units[0].LoadErrs, loadErrs...)
	}
	return units
}

// loadErrFinding turns a parse error into a finding at the error's
// position (scanner errors carry one; anything else lands on line 1).
func loadErrFinding(path string, err error) Finding {
	pos := token.Position{Filename: path, Line: 1, Column: 1}
	if list, ok := err.(scanner.ErrorList); ok && len(list) > 0 {
		pos = list[0].Pos
		return Finding{Pos: pos, Rule: "load", Msg: "file does not parse: " + list[0].Msg}
	}
	return Finding{Pos: pos, Rule: "load", Msg: "file does not parse: " + err.Error()}
}

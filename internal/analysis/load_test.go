package analysis

import (
	"bytes"
	"fmt"
	"go/build"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// crossmodDir is a fixture module of its own (module crossmod). Its app
// package sends a wire-unsafe payload type and tags declared in
// crossmod/wire, and its cycle/a and cycle/b packages import each other.
var crossmodDir = filepath.Join("testdata", "src", "crossmod")

// TestCrossModuleImports pins how module-local imports resolve: to the
// package the run loaded, whether or not the patterns named its
// directory, and the same way whatever GO111MODULE says.
func TestCrossModuleImports(t *testing.T) {
	app := filepath.Join(crossmodDir, "app")
	absApp, err := filepath.Abs(app)
	if err != nil {
		t.Fatal(err)
	}
	wire, tags := wantMarkers(t, app, "wiresafe"), wantMarkers(t, app, "sendrecv")
	var first []string
	for _, env := range []string{"", "off", "on"} {
		if env != "" {
			t.Setenv("GO111MODULE", env)
		}
		for _, pattern := range []string{crossmodDir + "/...", app, absApp} {
			units, err := Load([]string{pattern})
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, u := range units {
				for _, f := range Analyze(u, DefaultConfig()) {
					got = append(got, fmt.Sprintf("%s:%d: [%s] %s", filepath.Base(f.Pos.Filename), f.Pos.Line, f.Rule, f.Msg))
				}
			}
			if len(got) != 2 || !wire[strings.SplitN(got[0], ": ", 2)[0]] || !tags[strings.SplitN(got[1], ": ", 2)[0]] ||
				!strings.Contains(got[0], "[wiresafe] payload of Send has wire-unsafe type crossmod/wire.Msg") || !strings.Contains(got[1], "[sendrecv] ") {
				t.Errorf("GO111MODULE=%q, Load(%s): want the wiresafe finding naming crossmod/wire.Msg and the sendrecv finding, each on its WANT line, got %q", env, pattern, got)
			}
			if first == nil {
				first = got
			} else if !slices.Equal(got, first) {
				t.Errorf("GO111MODULE=%q, Load(%s) = %q, want %q", env, pattern, got, first)
			}
		}
	}
}

// recordingImporter notes every path it is asked for.
type recordingImporter struct {
	types.Importer
	paths []string
}

func (r *recordingImporter) Import(path string) (*types.Package, error) {
	r.paths = append(r.paths, path)
	return r.Importer.Import(path)
}

// TestSourceImporterSeesOnlyStd checks that no path outside the standard
// library reaches the source importer, where go/build would run `go list`
// for it: module-local imports resolve to loaded units, and a path no
// go.mod or GOROOT provides becomes a placeholder.
func TestSourceImporterSeesOnlyStd(t *testing.T) {
	units, err := Load([]string{crossmodDir + "/...", fixtureDir("wiresafe"), fixtureDir("nondet")})
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingImporter{Importer: units[0].imp.src}
	units[0].imp.src = rec
	for _, u := range units {
		Analyze(u, DefaultConfig())
	}
	if len(rec.paths) == 0 {
		t.Fatal("the source importer was never asked, not even for the fixtures' std imports")
	}
	for _, path := range rec.paths {
		if fi, err := os.Stat(filepath.Join(build.Default.GOROOT, "src", path)); err != nil || !fi.IsDir() {
			t.Errorf("source importer asked for %q, which names no directory under $GOROOT/src", path)
		}
	}
}

// TestImportCycleTerminates loads two packages that import each other.
// The analysis ends; the import that closes the cycle gets a placeholder
// and the other resolves to the loaded package.
func TestImportCycleTerminates(t *testing.T) {
	units, err := Load([]string{filepath.Join(crossmodDir, "cycle", "...")})
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 2 {
		t.Fatalf("expected units a and b, got %d", len(units))
	}
	for _, u := range units {
		for _, f := range Analyze(u, DefaultConfig()) {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	a, b := units[0].typesPkg, units[1].typesPkg
	imported := func(pkg *types.Package, path string) *types.Package {
		for _, imp := range pkg.Imports() {
			if imp.Path() == path {
				return imp
			}
		}
		t.Fatalf("%s does not import %s", pkg.Path(), path)
		return nil
	}
	if got := imported(a, "crossmod/cycle/b"); got != b {
		t.Error("a's import of b is not the loaded b")
	}
	if got := imported(b, "crossmod/cycle/a"); got == a || got.Scope().Len() != 0 {
		t.Error("b's import of a, which closes the cycle, is not an empty placeholder")
	}
}

// TestLoadReleasesItsFileSet checks that nothing of a run outlives it:
// once the units of a finished Load are dropped, its FileSet can be
// collected. The std universe every Load shares holds nothing of it.
func TestLoadReleasesItsFileSet(t *testing.T) {
	freed := make(chan struct{})
	func() {
		units, err := Load([]string{fixtureDir("wiresafe")}) // imports sync
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range units {
			Analyze(u, DefaultConfig())
		}
		runtime.SetFinalizer(units[0].Fset, func(*token.FileSet) { close(freed) })
	}()
	deadline := time.After(10 * time.Second)
	for {
		runtime.GC()
		select {
		case <-freed:
			return
		case <-deadline:
			t.Fatal("a finished Load's FileSet is still reachable after its units were dropped")
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// TestConcurrentMain runs two analyses at once; under -race it fails if
// they share unsynchronized state.
func TestConcurrentMain(t *testing.T) {
	const runs = 2
	var wg sync.WaitGroup
	codes := make([]int, runs)
	outs := make([]bytes.Buffer, runs)
	wg.Add(runs)
	for i := 0; i < runs; i++ {
		go func(i int) { //peachyvet:allow rawgo — the test IS two concurrent analyzer runs
			defer wg.Done()
			var errb bytes.Buffer
			codes[i] = Main([]string{"-q", fixtureDir("collective")}, &outs[i], &errb)
		}(i)
	}
	wg.Wait()
	for i := range codes {
		if codes[i] != 1 {
			t.Errorf("run %d: Main = %d, want 1\n%s", i, codes[i], outs[i].String())
		}
	}
	if outs[0].String() != outs[1].String() {
		t.Errorf("concurrent runs disagree:\n%s\nvs\n%s", outs[0].String(), outs[1].String())
	}
}

// TestLoadsShareOneStdUniverse checks that a process type-checks a std
// package once however many Loads it runs: two Loads that import sync get
// the same *types.Package.
func TestLoadsShareOneStdUniverse(t *testing.T) {
	syncOf := func() *types.Package {
		units, err := Load([]string{fixtureDir("wiresafe")}) // imports sync
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range units {
			Analyze(u, DefaultConfig())
			for _, imp := range u.typesPkg.Imports() {
				if imp.Path() == "sync" {
					return imp
				}
			}
		}
		t.Fatal("no unit of the wiresafe fixture imports sync")
		return nil
	}
	if a, b := syncOf(), syncOf(); a != b {
		t.Errorf("two Loads type-checked sync apart: %p and %p", a, b)
	}
}

// failingImporter fails every import.
type failingImporter struct{}

func (failingImporter) Import(path string) (*types.Package, error) {
	return nil, fmt.Errorf("no package %q", path)
}

// TestLockedImporterCachesPackages checks that the std universe's
// lockedImporter answers a repeat import from its cache: a second
// Import("os") returns the same *types.Package without asking the
// importer it wraps, whose go/build directory scan costs milliseconds.
// A failed import is not kept, so the next one asks again.
func TestLockedImporterCachesPackages(t *testing.T) {
	rec := &recordingImporter{Importer: stdUniverse}
	l := &lockedImporter{imp: rec}
	first, err := l.Import("os")
	if err != nil {
		t.Fatal(err)
	}
	second, err := l.Import("os")
	if err != nil {
		t.Fatal(err)
	}
	if second != first {
		t.Errorf("a second Import(\"os\") returned %p, the first %p", second, first)
	}
	if !slices.Equal(rec.paths, []string{"os"}) {
		t.Errorf("the wrapped importer was asked for %q, want os once", rec.paths)
	}

	rec = &recordingImporter{Importer: failingImporter{}}
	l = &lockedImporter{imp: rec}
	for i := 0; i < 2; i++ {
		if _, err := l.Import("os"); err == nil {
			t.Fatal("an import the wrapped importer failed succeeded")
		}
	}
	if len(rec.paths) != 2 {
		t.Errorf("after two failed imports the wrapped importer was asked %d times, want 2", len(rec.paths))
	}
}

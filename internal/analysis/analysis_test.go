package analysis

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// fixtureDir maps a rule to its fixture package. rawgo lives under an
// internal/ segment on purpose: the rule only polices internal packages.
func fixtureDir(rule string) string {
	if rule == "rawgo" {
		return filepath.Join("testdata", "src", "internal", "rawgo")
	}
	return filepath.Join("testdata", "src", rule)
}

// wantMarkers scans a fixture directory for `// WANT <rule>` line markers
// and returns the expected finding sites as "file.go:line" keys.
func wantMarkers(t *testing.T, dir, rule string) map[string]bool {
	t.Helper()
	want := map[string]bool{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	marker := "// WANT " + rule
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			if strings.Contains(sc.Text(), marker) {
				want[fmt.Sprintf("%s:%d", e.Name(), line)] = true
			}
		}
		f.Close()
	}
	if len(want) == 0 {
		t.Fatalf("no %q markers under %s — fixture broken", marker, dir)
	}
	return want
}

// TestRulesAgainstFixtures runs each rule alone over its fixture package:
// enabled, findings must land exactly on the WANT-marked lines (bad.go);
// disabled, the same fixture must produce nothing — so a silently
// neutered rule fails its test.
func TestRulesAgainstFixtures(t *testing.T) {
	for _, rule := range AllRules {
		t.Run(rule, func(t *testing.T) {
			dir := fixtureDir(rule)
			units, err := Load([]string{dir})
			if err != nil {
				t.Fatal(err)
			}
			if len(units) != 1 {
				t.Fatalf("expected 1 unit in %s, got %d", dir, len(units))
			}

			cfg := DefaultConfig()
			cfg.Rules = map[string]bool{rule: true}
			findings := Analyze(units[0], cfg)

			want := wantMarkers(t, dir, rule)
			got := map[string]bool{}
			for _, f := range findings {
				if f.Rule != rule {
					t.Errorf("finding from disabled rule: %s", f)
					continue
				}
				key := fmt.Sprintf("%s:%d", filepath.Base(f.Pos.Filename), f.Pos.Line)
				got[key] = true
				if !want[key] {
					t.Errorf("unexpected finding: %s", f)
				}
			}
			for key := range want {
				if !got[key] {
					t.Errorf("missing finding at %s", key)
				}
			}

			cfg.Rules = map[string]bool{} // non-nil and empty: all rules off
			if fs := Analyze(units[0], cfg); len(fs) != 0 {
				t.Errorf("rule disabled but still reported %d finding(s): %v", len(fs), fs[0])
			}
		})
	}
}

// TestRepositoryIsClean is the self-test: the real repo must come up
// clean under every rule (fixtures are under testdata and skipped). The
// findings its //peachyvet:allow directives suppress are pinned too: the
// same units, analyzed again with the directives cleared, must print
// testdata/golden/raw_findings.txt. It also checks that each package is
// type-checked once: every repro/... import resolves to the
// *types.Package of the unit the run loaded.
func TestRepositoryIsClean(t *testing.T) {
	const root = "../.."
	units, err := Load([]string{root + "/..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(units) < 10 {
		t.Fatalf("only %d units loaded from the repo root — load is broken", len(units))
	}
	for _, u := range units {
		for _, f := range Analyze(u, DefaultConfig()) {
			t.Errorf("repo not clean: %s", f)
		}
	}
	var raw bytes.Buffer
	for _, u := range units {
		u.allowLines = map[string]map[int]map[string]bool{}
		for _, f := range Analyze(u, DefaultConfig()) {
			rel, err := filepath.Rel(root, f.Pos.Filename)
			if err != nil {
				t.Fatal(err)
			}
			f.Pos.Filename = filepath.ToSlash(rel)
			fmt.Fprintln(&raw, f)
		}
	}
	checkGolden(t, filepath.Join("testdata", "golden", "raw_findings.txt"), raw.Bytes())
	loaded := map[string]*types.Package{}
	for _, u := range units {
		if u.typesPkg != nil {
			loaded[u.typesPkg.Path()] = u.typesPkg
		}
	}
	resolved := 0
	for _, u := range units {
		if u.typesPkg == nil {
			continue
		}
		for _, imp := range u.typesPkg.Imports() {
			if imp.Path() != "repro" && !strings.HasPrefix(imp.Path(), "repro/") {
				continue
			}
			resolved++
			if imp != loaded[imp.Path()] {
				t.Errorf("%s imports a second copy of %s, not the package of the unit this run loaded", u.Dir, imp.Path())
			}
		}
	}
	if resolved == 0 {
		t.Error("no unit imports a repro/... package — import resolution is broken")
	}
}

// TestSuppressionDirective checks //peachyvet:allow end to end: the
// rawgo good fixture contains a justified raw go statement.
func TestSuppressionDirective(t *testing.T) {
	dir := fixtureDir("rawgo")
	units, err := Load([]string{dir})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Rules = map[string]bool{"rawgo": true}
	for _, f := range Analyze(units[0], cfg) {
		if filepath.Base(f.Pos.Filename) == "good.go" {
			t.Errorf("suppressed site still reported: %s", f)
		}
	}
}

// TestCaptureFindingOrderIsStable analyzes the capture fixture 20 times.
// Its badDoSectionsPair reports `var a` and `var b` at one position, an
// order Analyze's sort leaves to the rule, so every analysis must print
// byte-identical JSON with the two findings in key order.
func TestCaptureFindingOrderIsStable(t *testing.T) {
	args := []string{"-rules", "capture", "-json", fixtureDir("capture")}
	var first string
	for i := 0; i < 20; i++ {
		var out, errb bytes.Buffer
		if code := Main(args, &out, &errb); code != 1 {
			t.Fatalf("Main(%v) = %d, want 1\nstderr: %s", args, code, errb.String())
		}
		if i == 0 {
			first = out.String()
		} else if out.String() != first {
			t.Fatalf("analysis %d printed\n%s\nthe first printed\n%s", i+1, out.String(), first)
		}
	}
	a, b := strings.Index(first, "captured var a:"), strings.Index(first, "captured var b:")
	if a < 0 || b < a {
		t.Errorf("want the var a finding, then the var b finding:\n%s", first)
	}
}

// TestMainExitCodes drives the shared CLI entry point: 1 on each bad
// fixture, 0 on a clean package, 2 on usage errors.
func TestMainExitCodes(t *testing.T) {
	badDirs := []string{
		fixtureDir("collective"),
		fixtureDir("sendrecv"),
		fixtureDir("protocol"),
		fixtureDir("deadlock"),
		fixtureDir("useaftersend"),
		fixtureDir("recvalias"),
		fixtureDir("wiresafe"),
		fixtureDir("hotalloc"),
		fixtureDir("rolledcoll"),
		fixtureDir("nondet"),
		fixtureDir("capture"),
		fixtureDir("lockcopy"),
		fixtureDir("rawgo"),
	}
	for _, dir := range badDirs {
		var out, errb bytes.Buffer
		if code := Main([]string{dir}, &out, &errb); code != 1 {
			t.Errorf("Main(%s) = %d, want 1\nstdout: %s\nstderr: %s", dir, code, out.String(), errb.String())
		}
	}

	var out, errb bytes.Buffer
	if code := Main([]string{"-q", "."}, &out, &errb); code != 0 {
		t.Errorf("Main(.) = %d, want 0\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}

	if code := Main([]string{"-rules", "nosuchrule", "."}, &out, &errb); code != 2 {
		t.Errorf("Main(-rules nosuchrule) = %d, want 2", code)
	}

	// Rule selection narrows the exit contract: the hotalloc fixture is
	// clean under nondet alone but dirty under hotalloc alone.
	out.Reset()
	errb.Reset()
	if code := Main([]string{"-rules", "nondet", "-q", fixtureDir("hotalloc")}, &out, &errb); code != 0 {
		t.Errorf("Main(-rules nondet, hotalloc fixture) = %d, want 0\nstdout: %s", code, out.String())
	}
	if code := Main([]string{"-rules", "hotalloc", "-q", fixtureDir("hotalloc")}, &out, &errb); code != 1 {
		t.Errorf("Main(-rules hotalloc, hotalloc fixture) = %d, want 1", code)
	}

	// -stats keeps the exit contract and reports per-rule counts.
	out.Reset()
	errb.Reset()
	if code := Main([]string{"-stats", "-rules", "rolledcoll", fixtureDir("rolledcoll")}, &out, &errb); code != 1 {
		t.Errorf("Main(-stats, rolledcoll fixture) = %d, want 1\nstderr: %s", code, errb.String())
	}
	var st Stats
	if err := json.Unmarshal(out.Bytes(), &st); err != nil {
		t.Fatalf("-stats output is not JSON: %v\n%s", err, out.String())
	}
	if st.Packages != 1 || st.Findings == 0 || st.Rules["rolledcoll"] != st.Findings {
		t.Errorf("-stats = %+v, want all findings under rolledcoll in 1 package", st)
	}
	if _, ok := st.Rules["nondet"]; !ok {
		t.Errorf("-stats omits zero-count rules: %+v", st.Rules)
	}

	if code := Main([]string{"-stats", "-json", "."}, &out, &errb); code != 2 {
		t.Errorf("Main(-stats -json) = %d, want 2", code)
	}
}

// BenchmarkFixturePass times one pass over the rule fixtures that import
// nothing, split into its phases: "pass" is one Main -json run, "load"
// parses the fixtures, "types" type-checks them and "rules" runs the
// thirteen rules over type-checked units. A standard-library import costs
// every Load a go/build scan of the package's directory, which would swamp
// the per-file work this times; the whole-repository benchmarks cover
// that. Run it at one CPU:
//
//	go test -run '^$' -bench FixturePass -benchmem -cpu 1 ./internal/analysis
func BenchmarkFixturePass(b *testing.B) {
	var dirs []string
	for _, rule := range []string{"capture", "deadlock", "hotalloc", "rawgo",
		"recvalias", "rolledcoll", "sendrecv", "useaftersend"} {
		dirs = append(dirs, fixtureDir(rule))
	}
	load := func(b *testing.B) []*Unit {
		units, err := Load(dirs)
		if err != nil {
			b.Fatal(err)
		}
		return units
	}
	for _, u := range load(b) {
		for _, f := range u.Files {
			if len(f.Imports) > 0 {
				b.Fatalf("%s imports a package", u.Fset.Position(f.Pos()).Filename)
			}
		}
	}
	b.Run("pass", func(b *testing.B) {
		args := append([]string{"-json"}, dirs...)
		for i := 0; i < b.N; i++ {
			if code := Main(args, io.Discard, io.Discard); code != 1 {
				b.Fatalf("Main over the fixtures = %d, want 1", code)
			}
		}
	})
	b.Run("load", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			load(b)
		}
	})
	// The types and rules phases start on a collected heap, so neither is
	// charged for a collection the untimed set-up's garbage owes.
	b.Run("types", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			units := load(b)
			runtime.GC()
			b.StartTimer()
			for _, u := range units {
				u.ensureTypes()
			}
		}
	})
	b.Run("rules", func(b *testing.B) {
		cfg := DefaultConfig()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			units := load(b)
			for _, u := range units {
				u.ensureTypes()
			}
			runtime.GC()
			b.StartTimer()
			for _, u := range units {
				Analyze(u, cfg)
			}
		}
	})
}

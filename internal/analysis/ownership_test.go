package analysis

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestOwnershipInterprocedural pins the interprocedural half of the
// ownership engine: the finding messages must name the helper the fact
// was spliced through — a write inside a callee, a write inside a method
// on the payload type, and a send inside a callee.
func TestOwnershipInterprocedural(t *testing.T) {
	units, err := Load([]string{fixtureDir("useaftersend")})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Rules = map[string]bool{"useaftersend": true}
	var msgs []string
	for _, f := range Analyze(units[0], cfg) {
		msgs = append(msgs, f.Msg)
	}
	all := strings.Join(msgs, "\n")
	for _, want := range []string{
		"write via scale",  // helper mutates the sent buffer
		"write via Bump",   // method on the payload type mutates it
		"Send via forward", // helper performs the send, caller mutates
		"shared by Bcast",  // collective result stays shared
	} {
		if !strings.Contains(all, want) {
			t.Errorf("no finding mentions %q; got:\n%s", want, all)
		}
	}
}

// TestSARIFRuleMetadata is the golden-file test for the driver's rule
// table: every rule carries a stable id, a PascalCase name, a one-line
// description and a helpUri into docs/analysis.md. Run with -update to
// rewrite the golden after an intentional change.
func TestSARIFRuleMetadata(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, nil); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, filepath.Join("testdata", "golden", "sarif_rules.json"), buf.Bytes())
}

// checkGolden compares got with the golden file, first rewriting the file
// when the test runs with -update.
func checkGolden(t *testing.T, golden string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output drifted from %s; run with -update if intentional\ngot:\n%s", golden, got)
	}
}

// TestUnreadableDirEmitsDocument guards the machine-output contract: a
// pattern naming an unreadable directory must not abort the run with an
// empty stdout — the other patterns' findings and a "load" finding for
// the bad directory must still land in one valid document, exit code 2.
func TestUnreadableDirEmitsDocument(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "does-not-exist")
	for _, mode := range []string{"-json", "-sarif"} {
		var out, errb bytes.Buffer
		code := Main([]string{mode, fixtureDir("useaftersend"), bad}, &out, &errb)
		if code != 2 {
			t.Errorf("%s: exit = %d, want 2 (load error)", mode, code)
		}
		if out.Len() == 0 {
			t.Fatalf("%s: no document on stdout (stderr: %s)", mode, errb.String())
		}
		var doc any
		if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
			t.Fatalf("%s: stdout is not valid JSON: %v", mode, err)
		}
		text := out.String()
		if !strings.Contains(text, "directory is not readable") {
			t.Errorf("%s: document lacks the load finding for the bad dir", mode)
		}
		if !strings.Contains(text, "useaftersend") {
			t.Errorf("%s: document lacks the good pattern's findings", mode)
		}
	}
}

// BenchmarkAnalyzeOwnership measures the ownership and wire-safety pass
// alone over the whole repository: the dataflow engine, the mutation
// summaries and the encodability lattice, on top of a shared parse.
func BenchmarkAnalyzeOwnership(b *testing.B) {
	units, err := Load([]string{"../../..."})
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Rules = map[string]bool{"useaftersend": true, "recvalias": true, "wiresafe": true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, u := range units {
			u.ownOnce = false
			u.ownFinds = nil
			u.sums = nil
			u.muts = nil
			u.wireCache = nil
			for _, f := range Analyze(u, cfg) {
				if f.Rule != "load" {
					b.Fatalf("repo not clean under ownership rules: %s", f)
				}
			}
		}
	}
}

package analysis

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGoldenSummaries pins the communication-summary builder's output on
// the summary fixture: symbolic parameters, call splicing with constant
// binding, divergent branches, rank-guarded early returns and
// rank-dependent loops all render to the exact golden strings below.
func TestGoldenSummaries(t *testing.T) {
	units, err := Load([]string{filepath.Join("testdata", "src", "summary")})
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 1 {
		t.Fatalf("expected 1 unit, got %d", len(units))
	}
	golden := map[string]string{
		"helperSend":     "Send[t=$tag d=$dst]",
		"sendData":       "Send@helperSend[t=7 d=2]",
		"phase":          "branch(rank){[Bcast] [Bcast]}; loop(rank-trips){Send[t=7 d=?]}",
		"guardedBarrier": "branch(rank){[] [Barrier]}",
	}
	got := map[string]string{}
	for _, sum := range SummarizeUnit(units[0]) {
		got[sum.Name] = FormatEffects(sum.Effects)
	}
	for name, want := range golden {
		if got[name] != want {
			t.Errorf("summary of %s:\n got %q\nwant %q", name, got[name], want)
		}
	}
}

// TestInterproceduralCatchesWhatIntraMisses is the acceptance check for
// the protocol engine: the bad protocol fixture is invisible to the
// intraprocedural rules but caught once calls are expanded, and the
// diagnostics carry the call path.
func TestInterproceduralCatchesWhatIntraMisses(t *testing.T) {
	dir := fixtureDir("protocol")
	units, err := Load([]string{dir})
	if err != nil {
		t.Fatal(err)
	}

	cfg := DefaultConfig()
	cfg.Rules = map[string]bool{"collective": true, "sendrecv": true}
	if fs := Analyze(units[0], cfg); len(fs) != 0 {
		t.Fatalf("intraprocedural rules unexpectedly see the bug: %v", fs[0])
	}

	cfg.Rules = map[string]bool{"protocol": true}
	findings := Analyze(units[0], cfg)
	if len(findings) == 0 {
		t.Fatal("protocol rule found nothing in the bad fixture")
	}
	withPath := false
	for _, f := range findings {
		if strings.Contains(f.Msg, "via ") {
			withPath = true
		}
	}
	if !withPath {
		t.Errorf("no finding carries a call-path diagnostic: %v", findings)
	}
}

// TestSuppressionPerRule proves //peachyvet:allow works for every
// registered rule: each fixture is copied to a temp tree with an allow
// directive inserted above every WANT line, after which the rule must
// report nothing.
func TestSuppressionPerRule(t *testing.T) {
	for _, rule := range AllRules {
		t.Run(rule, func(t *testing.T) {
			src := fixtureDir(rule)
			// rawgo only polices internal/ packages, so the copy keeps that
			// path segment.
			dst := filepath.Join(t.TempDir(), "internal", "fix")
			if err := os.MkdirAll(dst, 0o755); err != nil {
				t.Fatal(err)
			}
			entries, err := os.ReadDir(src)
			if err != nil {
				t.Fatal(err)
			}
			marker := "// WANT " + rule
			for _, e := range entries {
				if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
					continue
				}
				data, err := os.ReadFile(filepath.Join(src, e.Name()))
				if err != nil {
					t.Fatal(err)
				}
				var out []string
				for _, line := range strings.Split(string(data), "\n") {
					if strings.Contains(line, marker) {
						out = append(out, "//peachyvet:allow "+rule)
					}
					out = append(out, line)
				}
				if err := os.WriteFile(filepath.Join(dst, e.Name()), []byte(strings.Join(out, "\n")), 0o644); err != nil {
					t.Fatal(err)
				}
			}

			units, err := Load([]string{dst})
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig()
			cfg.Rules = map[string]bool{rule: true}
			for _, u := range units {
				for _, f := range Analyze(u, cfg) {
					t.Errorf("finding survived //peachyvet:allow %s: %s", rule, f)
				}
			}
		})
	}
}

// TestLoadErrors checks that a file that fails to parse becomes a "load"
// finding (the valid remainder still analyzed) and drives exit code 2.
func TestLoadErrors(t *testing.T) {
	dir := filepath.Join("testdata", "src", "loaderr")
	units, err := Load([]string{dir})
	if err != nil {
		t.Fatalf("Load aborted on a parse error: %v", err)
	}
	if len(units) != 1 {
		t.Fatalf("expected 1 unit, got %d", len(units))
	}
	findings := Analyze(units[0], DefaultConfig())
	loadErrs := 0
	for _, f := range findings {
		if f.Rule == "load" {
			loadErrs++
			if filepath.Base(f.Pos.Filename) != "broken.go" {
				t.Errorf("load error attributed to wrong file: %s", f)
			}
		}
	}
	if loadErrs == 0 {
		t.Fatalf("no load finding for broken.go; findings: %v", findings)
	}

	var out, errb bytes.Buffer
	if code := Main([]string{"-q", dir}, &out, &errb); code != 2 {
		t.Errorf("Main(%s) = %d, want 2 (load error)\nstdout: %s", dir, code, out.String())
	}
}

// TestJSONOutput checks the -json mode: an array of findings with stable
// ids and the documented fields.
func TestJSONOutput(t *testing.T) {
	dir := fixtureDir("protocol")
	var out1, out2, errb bytes.Buffer
	if code := Main([]string{"-json", dir}, &out1, &errb); code != 1 {
		t.Fatalf("Main(-json %s) = %d, want 1\nstderr: %s", dir, code, errb.String())
	}
	if code := Main([]string{"-json", dir}, &out2, &errb); code != 1 {
		t.Fatal("second run disagreed on exit code")
	}
	if out1.String() != out2.String() {
		t.Error("-json output is not stable across runs")
	}
	var findings []map[string]any
	if err := json.Unmarshal(out1.Bytes(), &findings); err != nil {
		t.Fatalf("-json output is not a JSON array: %v", err)
	}
	if len(findings) == 0 {
		t.Fatal("-json produced an empty array on a bad fixture")
	}
	for _, f := range findings {
		for _, key := range []string{"id", "rule", "file", "line", "column", "message"} {
			if _, ok := f[key]; !ok {
				t.Errorf("finding missing %q: %v", key, f)
			}
		}
		if id, _ := f["id"].(string); !strings.HasPrefix(id, "PV-") {
			t.Errorf("finding id %q does not look stable", f["id"])
		}
	}

	// A clean package yields [] and exit 0.
	out1.Reset()
	if code := Main([]string{"-json", "."}, &out1, &errb); code != 0 {
		t.Fatalf("Main(-json .) = %d, want 0", code)
	}
	if strings.TrimSpace(out1.String()) != "[]" {
		t.Errorf("clean -json output = %q, want []", out1.String())
	}
}

// TestSARIFOutput checks the -sarif mode against the SARIF 2.1.0 shape:
// schema/version header, tool driver with a rule table, and results with
// ruleId, message text and a physical location.
func TestSARIFOutput(t *testing.T) {
	dir := fixtureDir("deadlock")
	var out, errb bytes.Buffer
	if code := Main([]string{"-sarif", dir}, &out, &errb); code != 1 {
		t.Fatalf("Main(-sarif %s) = %d, want 1\nstderr: %s", dir, code, errb.String())
	}
	var log struct {
		Schema  string `json:"$schema"`
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID               string `json:"id"`
						ShortDescription struct {
							Text string `json:"text"`
						} `json:"shortDescription"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID  string `json:"ruleId"`
				Level   string `json:"level"`
				Message struct {
					Text string `json:"text"`
				} `json:"message"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine   int `json:"startLine"`
							StartColumn int `json:"startColumn"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
				PartialFingerprints map[string]string `json:"partialFingerprints"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(out.Bytes(), &log); err != nil {
		t.Fatalf("-sarif output is not JSON: %v", err)
	}
	if !strings.Contains(log.Schema, "sarif-2.1.0") {
		t.Errorf("$schema = %q, want a sarif-2.1.0 schema URI", log.Schema)
	}
	if log.Version != "2.1.0" {
		t.Errorf("version = %q, want 2.1.0", log.Version)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("expected 1 run, got %d", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "peachyvet" {
		t.Errorf("driver name = %q", run.Tool.Driver.Name)
	}
	ruleIDs := map[string]bool{}
	for _, r := range run.Tool.Driver.Rules {
		ruleIDs[r.ID] = true
		if r.ShortDescription.Text == "" {
			t.Errorf("rule %s has no description", r.ID)
		}
	}
	for _, name := range append(append([]string{}, AllRules...), "load") {
		if !ruleIDs[name] {
			t.Errorf("driver rule table missing %q", name)
		}
	}
	if len(run.Results) == 0 {
		t.Fatal("no results on a bad fixture")
	}
	for _, res := range run.Results {
		if res.RuleID == "" || res.Message.Text == "" || res.Level == "" {
			t.Errorf("result missing ruleId/message/level: %+v", res)
		}
		if len(res.Locations) != 1 {
			t.Errorf("result has %d locations, want 1", len(res.Locations))
			continue
		}
		loc := res.Locations[0].PhysicalLocation
		if loc.ArtifactLocation.URI == "" || loc.Region.StartLine < 1 || loc.Region.StartColumn < 1 {
			t.Errorf("result location malformed: %+v", loc)
		}
		if !strings.HasPrefix(res.PartialFingerprints["peachyvetId"], "PV-") {
			t.Errorf("result missing stable fingerprint: %+v", res.PartialFingerprints)
		}
	}
}

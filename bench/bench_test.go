package main

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// The harness reads BENCHMARK.json and the analyzer corpus relative to the
// repository root, where bench/run.sh runs it.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

// TestWorkloads runs every workload for one op per phase, untraced and
// traced, and checks that no op fails, that every metric emitted is named
// in BENCHMARK.json (report.set rejects any other) and that every metric
// BENCHMARK.json names is emitted by some workload.
func TestWorkloads(t *testing.T) {
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range sp.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames()) {
		t.Fatalf("BENCHMARK.json workloads %v, harness runs %v", names, workloadNames())
	}
	work := t.TempDir()
	emitted := map[string]bool{}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, traced), func(t *testing.T) {
				rep, err := measure(w, sp, config{seed: 2, seconds: 2, trace: traced, ops: 1, work: work})
				if err != nil {
					t.Fatal(err)
				}
				if rep.Failed != 0 || rep.Metrics["error_rate"].Value != 0 {
					t.Errorf("%d of %d ops failed", rep.Failed, rep.Attempted)
				}
				if _, err := resultLine(rep, sp); err != nil {
					t.Error(err)
				}
				for name := range rep.Metrics {
					emitted[name] = true
				}
			})
		}
	}
	for _, m := range append(sp.endToEnd(), sp.PerLayer...) {
		if !emitted[m.Name] && m.Name != "latency_p95_us" {
			t.Errorf("no workload emits %s", m.Name)
		}
	}
}

// TestVetFamilies checks that the rule families partition the analyzer's
// rules, so the per-family timings cover every rule once.
func TestVetFamilies(t *testing.T) {
	var got []string
	for _, f := range vetFamilies {
		got = append(got, strings.Split(f.rules, ",")...)
	}
	want := slices.Clone(analysis.AllRules)
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("families cover %v, analyzer has %v", got, want)
	}
}

// TestQuartiles pins the quartile method to Python's
// statistics.quantiles(xs, n=4), which the benchmark's spreads are
// judged by.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 3}, 1, 5},
		{[]float64{1, 2}, 0.75, 2.25},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// TestJudge covers the three verdicts of -compare.
func TestJudge(t *testing.T) {
	runs := func(name string, vs ...float64) []*report {
		var rs []*report
		for _, v := range vs {
			rs = append(rs, &report{Metrics: map[string]metric{name: {Value: v}}})
		}
		return rs
	}
	rate := metricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.1}
	sim := metricSpec{Name: "sim_makespan_us", Better: "lower"}
	setup := metricSpec{Name: "setup_s", Better: "lower", Bound: 0.25}
	errs := metricSpec{Name: "error_rate", Better: "lower"}
	for _, c := range []struct {
		m    metricSpec
		a, b []*report
		want string
	}{
		{rate, runs("ops_per_s", 100, 101, 99), runs("ops_per_s", 97, 98, 96), "ok"},
		{rate, runs("ops_per_s", 100, 101, 99), runs("ops_per_s", 85, 86, 84), "regressed"},
		{rate, runs("ops_per_s", 100, 70, 130), runs("ops_per_s", 85, 86, 84), "unresolved"},
		{rate, runs("ops_per_s", 100, 70, 130), runs("ops_per_s", 140, 150, 145), "ok"},
		{rate, runs("ops_per_s", 100), runs("ops_per_s", 85), "regressed"},
		{sim, runs("sim_makespan_us", 16.05), runs("sim_makespan_us", 16.06), "regressed"},
		{sim, runs("sim_makespan_us", 16.05), runs("sim_makespan_us", 16.05), "ok"},
		{setup, runs("setup_s", 20e-6), runs("setup_s", 40e-6), "ok"},
		{setup, runs("setup_s", 0.1), runs("setup_s", 0.2), "regressed"},
		{errs, runs("error_rate", 0, 0, 0), runs("error_rate", 0, 1, 0), "regressed"},
		{errs, runs("error_rate", 0, 0, 0), runs("error_rate", 0, 0), "ok"},
		{rate, runs("ops_per_s", 100, 101), runs("error_rate", 1), "regressed"},
	} {
		if got, _, _ := judge(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.m.Name, c.a[0].Metrics, c.b[0].Metrics, got, c.want)
		}
	}
}

// TestCompareFailedRun checks that a workload whose run crashed or hung —
// absent from the candidate set, or recorded there by failedRun — is a
// regression, not a skipped row.
func TestCompareFailedRun(t *testing.T) {
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	good := func(name string) *report {
		m := map[string]metric{}
		for _, ms := range sp.endToEnd() {
			m[ms.Name] = metric{Value: 1}
		}
		m["error_rate"] = metric{}
		return &report{Workload: name, Metrics: m}
	}
	var base []*report
	for _, name := range workloadNames() {
		base = append(base, good(name))
	}
	last := len(base) - 1
	for _, c := range []struct {
		name      string
		candidate []*report
		regressed bool
	}{
		{"same", base, false},
		{"missing", base[:last], true},
		{"failed", append(base[:last:last], failedRun(base[last].Workload, config{})), true},
	} {
		var out strings.Builder
		regressed, err := compare(sp, base, c.candidate, &out)
		if err != nil {
			t.Fatal(err)
		}
		if regressed != c.regressed {
			t.Errorf("%s: regressed = %v, want %v\n%s", c.name, regressed, c.regressed, out.String())
		}
		if rows := strings.Count(out.String(), "\n") - 1; rows != len(base) {
			t.Errorf("%s: %d rows, want one per workload:\n%s", c.name, rows, out.String())
		}
	}
}

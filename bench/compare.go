package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"
	"text/tabwriter"
)

// setupFloor is the smallest set-up slowdown that counts as a regression:
// in-process set-ups take microseconds, where a relative bound alone
// would flag scheduler noise.
const setupFloor = 0.005 // s

// exactTol absorbs the last-bit rounding of deterministic metrics that
// are averaged over a run's varying batch sizes.
const exactTol = 1e-9

// compareSets judges the candidate set document bPath against the
// baseline aPath; see compare.
func compareSets(sp *spec, aPath, bPath string, w io.Writer) (bool, error) {
	a, err := readSet(aPath)
	if err != nil {
		return false, err
	}
	b, err := readSet(bPath)
	if err != nil {
		return false, err
	}
	return compare(sp, a, b, w)
}

// compare judges a candidate set b against a baseline a on every
// (end-to-end metric, workload) pair. It prints one row per workload of
// the baseline — the workload's verdict, then each metric's status and
// change (positive is worse) — and reports whether any pair regressed. A
// workload or metric the baseline has and the candidate lacks regressed:
// a set records a crashed or hung run as one failed op and nothing else.
func compare(sp *spec, a, b []*report, w io.Writer) (bool, error) {
	metrics := sp.endToEnd()
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	head := []string{"workload", "verdict"}
	for _, m := range metrics {
		head = append(head, m.Name)
	}
	fmt.Fprintln(tw, strings.Join(head, "\t"))
	regressed := false
	for _, name := range workloadNames() {
		ra, rb := runsOf(a, name), runsOf(b, name)
		if len(ra) == 0 {
			continue
		}
		verdict := "ok"
		var cells []string
		for _, m := range metrics {
			status, worse, ok := judge(m, ra, rb)
			if !ok {
				cells = append(cells, "-")
				continue
			}
			if status == "regressed" || (status == "unresolved" && verdict == "ok") {
				verdict = status
			}
			if math.IsInf(worse, 1) {
				cells = append(cells, status+" missing")
				continue
			}
			cells = append(cells, fmt.Sprintf("%s %+.1f%%", status, 100*worse))
		}
		regressed = regressed || verdict == "regressed"
		fmt.Fprintln(tw, strings.Join(append([]string{name, verdict}, cells...), "\t"))
	}
	return regressed, tw.Flush()
}

func readSet(path string) ([]*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set []*report
	if err := json.Unmarshal(data, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}

func runsOf(set []*report, workload string) []*report {
	var runs []*report
	for _, r := range set {
		if r.Workload == workload {
			runs = append(runs, r)
		}
	}
	return runs
}

// values returns a metric's value in each run and its run-to-run spread
// (0 for a single run: a run's batches are far noisier than the quietest
// batch it reports, so their spread says nothing about the run's).
func values(runs []*report, name string) ([]float64, float64) {
	var vs []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			vs = append(vs, m.Value)
		}
	}
	return vs, spread(vs)
}

// judge compares one metric of one workload. The candidate regressed when
// its median is worse than the baseline's by more than the bound. An
// exact metric (bound 0) compares each side's worst run instead, and any
// worsening regresses: one failed run among several raises error_rate.
// The pair is unresolved when either side's spread is wider than the
// bound, unless every candidate run beats every baseline run. worse is
// the change as a share of the baseline value (an absolute change when
// that is 0); positive is worse. A metric the baseline has and the
// candidate lacks regressed with worse = +Inf; one the baseline lacks is
// not judged (ok is false).
func judge(m metricSpec, a, b []*report) (status string, worse float64, ok bool) {
	va, sa := values(a, m.Name)
	vb, sb := values(b, m.Name)
	switch {
	case len(va) == 0:
		return "", 0, false
	case len(vb) == 0:
		return "regressed", math.Inf(1), true
	}
	sign := 1.0
	if m.Better == "higher" {
		sign = -1
	}
	ma, mb := median(va), median(vb)
	if m.Bound == 0 {
		ma, mb = sign*slices.Max(scaled(va, sign)), sign*slices.Max(scaled(vb, sign))
	}
	worse = sign * (mb - ma)
	if ma != 0 {
		worse /= math.Abs(ma)
	}
	limit := m.Bound
	if m.Name == "setup_s" && ma > 0 {
		limit = max(limit, setupFloor/ma)
	}
	switch {
	case m.Bound == 0:
		if worse > exactTol {
			return "regressed", worse, true
		}
	case max(sa, sb) > m.Bound && !allBetter(va, vb, sign):
		return "unresolved", worse, true
	case worse > limit:
		return "regressed", worse, true
	}
	return "ok", worse, true
}

// allBetter reports whether every candidate value beats every baseline
// value; sign is -1 when higher is better.
func allBetter(a, b []float64, sign float64) bool {
	return slices.Max(scaled(b, sign)) < slices.Min(scaled(a, sign))
}

// scaled returns xs times sign, so that larger is worse.
func scaled(xs []float64, sign float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = sign * x
	}
	return out
}

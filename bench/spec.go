package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"repro/internal/obs"
)

// metricSpec is one metric of BENCHMARK.json: its unit, which direction
// is better and, for end-to-end metrics, the share of the baseline's
// median by which it may worsen before a change counts as a regression.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// spec is BENCHMARK.json, the single list of workloads and metric names.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// extraMetrics are end-to-end metrics the harness reports and compares
// that BENCHMARK.json's end_to_end list cannot hold. That list admits
// only metrics every workload's untraced run prints, that never read 0
// and, for times, that do not read the same on every run (README.md, "End
// to end"). A bound of 0 means any worsening is a regression.
var extraMetrics = []metricSpec{
	// Emitted only for batches of at least 200 ops, so that ten samples
	// lie beyond it: coll-p4 and net-pingpong. Its bound is
	// latency_p50_us's (see endToEnd).
	{Name: "latency_p95_us", Unit: "us", Better: "lower"},
	// Deterministic: the α+β·n model of the op's messages.
	{Name: "sim_makespan_us", Unit: "us", Better: "lower"},
	// Failed ops over attempted ops; 0 on every workload.
	{Name: "error_rate", Unit: "ratio", Better: "lower"},
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sp, nil
}

// endToEnd returns BENCHMARK.json's end-to-end metrics followed by the
// harness's extra ones: every metric with a regression bound.
func (sp *spec) endToEnd() []metricSpec {
	all := append(append([]metricSpec(nil), sp.EndToEnd...), extraMetrics...)
	var p50 float64
	for _, m := range sp.EndToEnd {
		if m.Name == "latency_p50_us" {
			p50 = m.Bound
		}
	}
	for i := range all {
		if all[i].Name == "latency_p95_us" {
			all[i].Bound = p50
		}
	}
	return all
}

func (sp *spec) lookup(name string) (metricSpec, bool) {
	for _, list := range [][]metricSpec{sp.endToEnd(), sp.PerLayer} {
		for _, m := range list {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metricSpec{}, false
}

// order lists the names of ms in specification order.
func (sp *spec) order(ms map[string]metric) []string {
	rank := map[string]int{}
	for i, m := range append(sp.endToEnd(), sp.PerLayer...) {
		rank[m.Name] = i
	}
	names := make([]string, 0, len(ms))
	for name := range ms {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return rank[names[i]] < rank[names[j]] })
	return names
}

// metric is one measured value. N is the number of samples behind it and
// Spread the distance between the quartiles of its values over the run's
// batches (set-ups, for setup_s) as a share of their median; 0 when the
// run gives one value.
type metric struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Spread float64 `json:"spread"`
}

// report is everything one run of one workload measured.
type report struct {
	Workload   string            `json:"workload"`
	Seed       uint64            `json:"seed"`
	Seconds    int               `json:"seconds"`
	Trace      bool              `json:"trace"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Metrics    map[string]metric `json:"metrics"`

	doc *obs.Metrics // the traced phase's last obs metrics document
}

// set records one metric, taking its unit from the specification; a name
// the specification does not know is a harness bug.
func (r *report) set(sp *spec, name string, value float64, n int, spread float64) error {
	m, ok := sp.lookup(name)
	if !ok {
		return fmt.Errorf("metric %q is not in BENCHMARK.json", name)
	}
	r.Metrics[name] = metric{Value: value, Unit: m.Unit, N: n, Spread: spread}
	return nil
}

// resultLine is the run's last line of output: BENCHMARK.json's
// end-to-end metrics for an untraced run, its per-layer metrics for a
// traced one. A per-layer metric of a layer the workload does not
// exercise reads 0.
func resultLine(r *report, sp *spec) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, map[string]value{}}
	list := sp.EndToEnd
	if r.Trace {
		list = sp.PerLayer
	}
	for _, ms := range list {
		m, ok := r.Metrics[ms.Name]
		if !ok && !r.Trace {
			return nil, fmt.Errorf("%s measured no %s", r.Workload, ms.Name)
		}
		line.Metrics[ms.Name] = value{m.Value, ms.Unit}
	}
	return json.Marshal(line)
}

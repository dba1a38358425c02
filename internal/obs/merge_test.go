// Tests for the cross-rank artifact merge: merging per-rank documents
// must reproduce the in-process exporters byte-for-byte (traces) and
// field-for-field up to wall clocks (metrics), LintMerged must catch
// out-of-order, foreign-rank, and conservation violations, and every
// merge must refuse what LintMerged reports.
package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// mergeScript records a fixed, fully deterministic per-rank program:
// every sim value is a literal, so in-process and per-rank runs agree
// bit-for-bit. Each rank sends 64 bytes to the next and receives the
// same from the previous — the conservation matrix is a ring.
func mergeScript(rec *Recorder, r, p int) {
	next := (r + 1) % p
	prev := (r + p - 1) % p
	base := float64(r)
	rec.Collective("Bcast", 0, base, base+0.5, rec.Now())
	rec.Send(next, 7, 64, base+0.5, base+0.6)
	rec.Recv(prev, 7, 64, base+0.6, base+0.7, rec.Now())
	rec.PhaseSpan("phase.work", base+0.7, base+1, rec.Now(), KV{K: "items", V: int64(r)})
	rec.Instant("probe", prev, 7, 0, base+1)
}

// inProcessTrace records all ranks into one trace (the single-process
// shape); perRankTraces records each rank into its own P-rank trace with
// the other recorders untouched (the launched shape).
func inProcessTrace(p int) *Trace {
	t := NewTrace(p)
	for r := 0; r < p; r++ {
		mergeScript(t.Rank(r), r, p)
	}
	return t
}

func perRankTraces(p int) []*Trace {
	out := make([]*Trace, p)
	for r := 0; r < p; r++ {
		out[r] = NewTrace(p)
		mergeScript(out[r].Rank(r), r, p)
	}
	return out
}

func traceDocs(t *testing.T, traces []*Trace) [][]byte {
	t.Helper()
	docs := make([][]byte, len(traces))
	for r, tr := range traces {
		var buf bytes.Buffer
		if err := tr.WriteChrome(&buf); err != nil {
			t.Fatalf("rank %d WriteChrome: %v", r, err)
		}
		docs[r] = buf.Bytes()
	}
	return docs
}

func metricsDocs(t *testing.T, traces []*Trace) [][]byte {
	t.Helper()
	docs := make([][]byte, len(traces))
	for r, tr := range traces {
		var buf bytes.Buffer
		if err := tr.WriteMetrics(&buf); err != nil {
			t.Fatalf("rank %d WriteMetrics: %v", r, err)
		}
		docs[r] = buf.Bytes()
	}
	return docs
}

func TestMergeTracesMatchesInProcess(t *testing.T) {
	for _, p := range []int{2, 4, 8} {
		docs := traceDocs(t, perRankTraces(p))
		var want bytes.Buffer
		if err := inProcessTrace(p).WriteChrome(&want); err != nil {
			t.Fatal(err)
		}
		var got, again bytes.Buffer
		if err := MergeTraces(&got, docs); err != nil {
			t.Fatalf("P=%d MergeTraces: %v", p, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("P=%d: merged trace differs from the in-process trace (%d vs %d bytes)",
				p, got.Len(), want.Len())
		}
		if err := MergeTraces(&again, docs); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), again.Bytes()) {
			t.Errorf("P=%d: two merges of the same documents differ", p)
		}
		if err := LintTrace(got.Bytes()); err != nil {
			t.Errorf("P=%d: merged trace fails lint: %v", p, err)
		}
		if err := LintMerged(docs); err != nil {
			t.Errorf("P=%d: LintMerged on clean documents: %v", p, err)
		}
	}
}

// zeroWall clears every wall-clock-derived field so deterministic (sim)
// content can be compared exactly across independent recordings.
func zeroWall(m *Metrics) {
	zero := func(ops []OpMetrics) {
		for i := range ops {
			ops[i].WallNs = 0
			ops[i].WallP50, ops[i].WallP95 = 0, 0
			ops[i].WallP99, ops[i].WallMax = 0, 0
			ops[i].WallHist = nil
		}
	}
	for i := range m.PerRank {
		m.PerRank[i].RecvWaitWallNs = 0
		zero(m.PerRank[i].Ops)
	}
	zero(m.Ops)
}

func TestMergeMetricsMatchesInProcess(t *testing.T) {
	for _, p := range []int{2, 4, 8} {
		docs := metricsDocs(t, perRankTraces(p))
		merged, err := MergeMetrics(docs)
		if err != nil {
			t.Fatalf("P=%d MergeMetrics: %v", p, err)
		}
		want := inProcessTrace(p).Metrics()
		zeroWall(merged)
		zeroWall(want)
		got, _ := json.Marshal(merged)
		exp, _ := json.Marshal(want)
		if !bytes.Equal(got, exp) {
			t.Errorf("P=%d: merged metrics differ from in-process metrics\nmerged: %s\nwant:   %s",
				p, got, exp)
		}
	}
}

// TestMergeDispatch: Merge sniffs the document kind — trace documents
// produce the MergeTraces bytes, metrics documents produce an indented
// JSON document that passes the single-document metrics lint.
func TestMergeDispatch(t *testing.T) {
	traces := perRankTraces(4)
	tdocs := traceDocs(t, traces)
	var direct, dispatched bytes.Buffer
	if err := MergeTraces(&direct, tdocs); err != nil {
		t.Fatal(err)
	}
	if err := Merge(&dispatched, tdocs); err != nil {
		t.Fatalf("Merge(trace docs): %v", err)
	}
	if !bytes.Equal(direct.Bytes(), dispatched.Bytes()) {
		t.Error("Merge dispatched trace output differs from MergeTraces")
	}

	mdocs := metricsDocs(t, traces)
	var merged bytes.Buffer
	if err := Merge(&merged, mdocs); err != nil {
		t.Fatalf("Merge(metrics docs): %v", err)
	}
	if err := LintMetrics(merged.Bytes()); err != nil {
		t.Errorf("merged metrics document fails LintMetrics: %v", err)
	}
}

func TestMergeTracesWorldSizeMismatch(t *testing.T) {
	docs := traceDocs(t, perRankTraces(4))
	var buf bytes.Buffer
	err := MergeTraces(&buf, docs[:2])
	if err == nil || !strings.Contains(err.Error(), "4-rank world but 2 documents") {
		t.Errorf("want world-size mismatch error, got %v", err)
	}
}

func TestLintMergedOutOfOrder(t *testing.T) {
	tdocs := traceDocs(t, perRankTraces(2))
	tdocs[0], tdocs[1] = tdocs[1], tdocs[0]
	if err := LintMerged(tdocs); err == nil ||
		!strings.Contains(err.Error(), "out of rank order") {
		t.Errorf("trace docs out of order: want ownership finding, got %v", err)
	}

	mdocs := metricsDocs(t, perRankTraces(2))
	mdocs[0], mdocs[1] = mdocs[1], mdocs[0]
	if err := LintMerged(mdocs); err == nil ||
		!strings.Contains(err.Error(), "out of rank order") {
		t.Errorf("metrics docs out of order: want ownership finding, got %v", err)
	}
}

// lossyTraces records a two-rank launched run in which rank 0 claims a
// send that rank 1 never received.
func lossyTraces() []*Trace {
	p := 2
	out := make([]*Trace, p)
	for r := 0; r < p; r++ {
		out[r] = NewTrace(p)
		rec := out[r].Rank(r)
		rec.Collective("Barrier", -1, 0, 0.1, rec.Now())
		if r == 0 {
			rec.Send(1, 5, 32, 0.1, 0.2)
		}
	}
	return out
}

// TestLintMergedConservation: rank 0 claims a send that rank 1 never
// received — the cross-file pass must flag the edge in both document
// kinds (a single-file lint cannot see it at all).
func TestLintMergedConservation(t *testing.T) {
	lossy := lossyTraces
	if err := LintMerged(traceDocs(t, lossy())); err == nil ||
		!strings.Contains(err.Error(), "conservation violated") {
		t.Errorf("trace docs: want conservation finding, got %v", err)
	}
	if err := LintMerged(metricsDocs(t, lossy())); err == nil ||
		!strings.Contains(err.Error(), "conservation violated") {
		t.Errorf("metrics docs: want conservation finding, got %v", err)
	}
}

func TestLintMergedMixedKinds(t *testing.T) {
	traces := perRankTraces(2)
	docs := [][]byte{traceDocs(t, traces)[0], metricsDocs(t, traces)[1]}
	if err := LintMerged(docs); err == nil ||
		!strings.Contains(err.Error(), "merge traces and metrics separately") {
		t.Errorf("mixed kinds: want kind mismatch error, got %v", err)
	}
}

// TestLintMergedSingleDoc: one document degrades to the per-file lint.
func TestLintMergedSingleDoc(t *testing.T) {
	docs := traceDocs(t, []*Trace{inProcessTrace(2)})
	if err := LintMerged(docs); err != nil {
		t.Errorf("single clean document: %v", err)
	}
	if err := LintMerged([][]byte{[]byte("{")}); err == nil {
		t.Error("single broken document: want an error")
	}
}

// TestMergesRefuseWhatLintReports: every merge reads through the same
// checks as LintMerged, so a lossy, swapped or mixed set fails each merge
// with exactly LintMerged's findings and writes nothing.
func TestMergesRefuseWhatLintReports(t *testing.T) {
	swapped := func(docs [][]byte) [][]byte { return [][]byte{docs[1], docs[0]} }
	traces := perRankTraces(2)
	mixed := [][]byte{traceDocs(t, traces)[0], metricsDocs(t, traces)[1]}
	sets := []struct {
		name, kind string
		docs       [][]byte
	}{
		{"lossy traces", "trace", traceDocs(t, lossyTraces())},
		{"lossy metrics", "metrics", metricsDocs(t, lossyTraces())},
		{"swapped traces", "trace", swapped(traceDocs(t, traces))},
		{"swapped metrics", "metrics", swapped(metricsDocs(t, traces))},
		{"mixed kinds", "", mixed},
	}
	for _, set := range sets {
		lint := LintMerged(set.docs)
		if lint == nil {
			t.Fatalf("%s: LintMerged reports nothing", set.name)
		}
		merges := map[string]func() (int, error){
			"Merge": func() (int, error) {
				var buf bytes.Buffer
				err := Merge(&buf, set.docs)
				return buf.Len(), err
			},
		}
		if set.kind != "metrics" {
			merges["MergeTraces"] = func() (int, error) {
				var buf bytes.Buffer
				err := MergeTraces(&buf, set.docs)
				return buf.Len(), err
			}
		}
		if set.kind != "trace" {
			merges["MergeMetrics"] = func() (int, error) {
				m, err := MergeMetrics(set.docs)
				if m != nil {
					return 1, err
				}
				return 0, err
			}
		}
		for name, merge := range merges {
			n, err := merge()
			if err == nil || err.Error() != lint.Error() {
				t.Errorf("%s: %s returned %v, want LintMerged's findings:\n%v", set.name, name, err, lint)
			}
			if n != 0 {
				t.Errorf("%s: %s wrote output for a refused set", set.name, name)
			}
		}
	}
}

// TestMergeKindMismatch: a clean set of the other kind is refused by the
// kind-specific merges.
func TestMergeKindMismatch(t *testing.T) {
	traces := perRankTraces(2)
	var buf bytes.Buffer
	if err := MergeTraces(&buf, metricsDocs(t, traces)); err == nil || buf.Len() != 0 {
		t.Errorf("MergeTraces of metrics documents: got %v and %d bytes, want an error and nothing written", err, buf.Len())
	}
	if _, err := MergeMetrics(traceDocs(t, traces)); err == nil {
		t.Error("MergeMetrics of trace documents: want an error")
	}
}

package obs

import (
	"errors"
	"fmt"
	"io"
	"slices"
)

// Merging launched runs. Under `peachy launch` every rank is its own
// process and writes its own artifacts (trace.json.rank0 .. rankP-1);
// this file folds them back into the single documents an in-process run
// would have written.
//
// For traces that reconstruction is exact: a per-rank trace already
// names every rank's track (metadata for the whole world travels in
// each artifact) and carries events only on the local rank's track, all
// on the shared simulated clock, serialized by the same encoder
// WriteChrome uses. MergeTraces therefore re-emits the world's metadata
// followed by each rank's events, through that same encoder — and the
// result is byte-identical to the in-process WriteChrome of the same
// program, and byte-identical across repeated launched runs (wall time
// never enters the trace). For metrics, every per-rank field of the
// merged document is taken from the rank that owns it and the run-level
// fields are recomputed by Metrics.total, the fold Trace.Metrics uses,
// so histograms merge exactly (fixed bucket boundaries) and quantiles
// come out identical to the in-process run's.
//
// Every merge and LintMerged read the documents through readRankSet,
// which runs the single-document linter (lint.go) on each and checks
// the set as one run, conservation included: what rank s's traffic
// matrix row says it sent to rank d must equal what rank d's counters
// say arrived. A merge therefore refuses exactly the sets LintMerged
// reports.

// rankSet is one launched run's per-rank documents, parsed and checked:
// traces[r] holds rank r's trace events, or metrics[r] its metrics
// document, by the set's kind.
type rankSet struct {
	kind    string
	traces  [][]traceEvent
	metrics []*Metrics
}

// readRankSet parses each of docs (docs[r] is rank r's file) once and
// checks them as one launched run: every document passes its
// single-file lint, all are of one kind, each declares a world of
// len(docs) ranks and carries data for its own rank only, and — the
// cross-document conservation invariant — what rank s recorded as sent
// to rank d equals what rank d recorded as received. All findings are
// reported, joined, one "merged: " line each; a document of the other
// kind ends the read at once.
func readRankSet(docs [][]byte) (*rankSet, error) {
	ranks := len(docs)
	if ranks == 0 {
		return nil, errors.New("merged: no documents")
	}
	set := &rankSet{traces: make([][]traceEvent, ranks), metrics: make([]*Metrics, ranks)}
	var findings []error
	finding := func(r int, format string, args ...any) {
		findings = append(findings, fmt.Errorf("merged: doc %d: "+format, append([]any{r}, args...)...))
	}
	for r, data := range docs {
		kind, err := sniffDoc(data)
		if err != nil {
			finding(r, "%w", err)
			continue
		}
		if set.kind == "" {
			set.kind = kind
		} else if kind != set.kind {
			return nil, fmt.Errorf("merged: doc %d is a %s document among %s documents — merge traces and metrics separately", r, kind, set.kind)
		}
		world, foreign := 0, []int(nil)
		if kind == "trace" {
			evs, err := parseTrace(data)
			if err != nil {
				finding(r, "%w", err)
				continue
			}
			set.traces[r] = evs
			for _, ev := range evs {
				if *ev.Ph == "M" {
					if ev.Name == "thread_name" {
						world++
					}
				} else if *ev.Tid != r && !slices.Contains(foreign, *ev.Tid) {
					foreign = append(foreign, *ev.Tid)
				}
			}
		} else {
			m, err := parseMetrics(data)
			if err != nil {
				finding(r, "%w", err)
				continue
			}
			set.metrics[r] = m
			world, foreign = m.Ranks, m.foreignRanks(r)
		}
		if world != ranks {
			finding(r, "declares a %d-rank world but %d documents were given — pass every rank's artifact of one launched run, in rank order", world, ranks)
			continue
		}
		for _, q := range foreign {
			finding(r, "carries data for rank %d — not a per-rank artifact, or out of rank order", q)
		}
	}
	if len(findings) > 0 {
		return nil, errors.Join(findings...)
	}
	if set.kind == "trace" {
		findings = set.traceConservation()
	} else {
		findings = set.metricsConservation()
	}
	if len(findings) > 0 {
		return nil, errors.Join(findings...)
	}
	return set, nil
}

// foreignRanks lists the ranks other than own that m holds counters or
// traffic for.
func (m *Metrics) foreignRanks(own int) []int {
	var out []int
	nonzero := func(v int64) bool { return v != 0 }
	for q, rm := range m.PerRank {
		if q != own && (rm.MsgsSent != 0 || rm.MsgsRecv != 0 || rm.BytesSent != 0 || rm.BytesRecv != 0 || rm.Collectives != 0 ||
			slices.ContainsFunc(m.TrafficMsgs[q], nonzero) || slices.ContainsFunc(m.TrafficBytes[q], nonzero)) {
			out = append(out, q)
		}
	}
	return out
}

// traceConservation checks every edge: send events on rank s's track
// addressed to d must match recv events on rank d's track from s, in
// both count and bytes.
func (s *rankSet) traceConservation() []error {
	var findings []error
	ranks := len(s.traces)
	sentMsgs, sentBytes := mat(ranks), mat(ranks)
	recvMsgs, recvBytes := mat(ranks), mat(ranks)
	for r, evs := range s.traces {
		for _, ev := range evs {
			if *ev.Ph != "X" || (ev.Name != "send" && ev.Name != "recv") {
				continue
			}
			peer, ok := argInt(ev.Args, "peer")
			if !ok || peer < 0 || peer >= int64(ranks) {
				findings = append(findings, fmt.Errorf("merged: doc %d: %s event without a valid peer rank", r, ev.Name))
				continue
			}
			bytes, _ := argInt(ev.Args, "bytes") // absent means a 0-byte payload
			if ev.Name == "send" {
				sentMsgs[r][peer]++
				sentBytes[r][peer] += bytes
			} else {
				recvMsgs[r][peer]++
				recvBytes[r][peer] += bytes
			}
		}
	}
	for src := 0; src < ranks; src++ {
		for d := 0; d < ranks; d++ {
			if sentMsgs[src][d] != recvMsgs[d][src] || sentBytes[src][d] != recvBytes[d][src] {
				findings = append(findings, fmt.Errorf(
					"merged: conservation violated on edge %d->%d: rank %d traced %d msgs / %d bytes sent but rank %d traced %d msgs / %d bytes received",
					src, d, src, sentMsgs[src][d], sentBytes[src][d], d, recvMsgs[d][src], recvBytes[d][src]))
			}
		}
	}
	return findings
}

// metricsConservation checks every receiving rank: column d of the
// assembled traffic matrix (everything every rank said it sent to d)
// must equal rank d's received totals. A metrics document keeps no
// per-source receive counts, so this is the finest check it allows.
func (s *rankSet) metricsConservation() []error {
	var findings []error
	for d := range s.metrics {
		var colMsgs, colBytes int64
		for src, m := range s.metrics {
			colMsgs += m.TrafficMsgs[src][d]
			colBytes += m.TrafficBytes[src][d]
		}
		got := s.metrics[d].PerRank[d]
		if colMsgs != got.MsgsRecv || colBytes != got.BytesRecv {
			findings = append(findings, fmt.Errorf(
				"merged: conservation violated at rank %d: the world sent it %d msgs / %d bytes but it recorded %d msgs / %d bytes received",
				d, colMsgs, colBytes, got.MsgsRecv, got.BytesRecv))
		}
	}
	return findings
}

// readRankSetOf reads docs as a set of the given kind.
func readRankSetOf(docs [][]byte, kind string) (*rankSet, error) {
	set, err := readRankSet(docs)
	if err == nil && set.kind != kind {
		err = fmt.Errorf("merged: %s documents, not %s documents", set.kind, kind)
	}
	return set, err
}

// MergeTraces folds N per-rank Chrome trace artifacts from one launched
// run (docs[r] is rank r's file, in rank order) into a single trace on
// w: one track per rank on the shared simulated clock. The output is
// byte-identical to what an in-process run of the same program writes,
// and byte-identical across repeated launched runs. A set LintMerged
// reports is refused with the same findings.
func MergeTraces(w io.Writer, docs [][]byte) error {
	set, err := readRankSetOf(docs, "trace")
	if err != nil {
		return err
	}
	return set.writeTrace(w)
}

// writeTrace writes the world's track metadata, then each rank's events
// in file order, through WriteChrome's encoder.
func (s *rankSet) writeTrace(w io.Writer) error {
	enc := newChromeEnc(w)
	enc.meta(len(s.traces))
	for _, evs := range s.traces {
		for _, ev := range evs {
			if *ev.Ph != "M" {
				enc.emit(chromeEvent{Name: ev.Name, Ph: *ev.Ph, Pid: ev.Pid, Tid: *ev.Tid, Ts: *ev.Ts, Dur: ev.Dur, S: ev.S, Args: ev.Args})
			}
		}
	}
	return enc.close()
}

// MergeMetrics folds N per-rank metrics artifacts from one launched run
// (docs[r] is rank r's file, in rank order) into the single metrics
// document the in-process run would produce: per-rank rows and traffic
// rows taken from the rank that owns them, the run-level fields
// recomputed by the fold Trace.Metrics uses. A set LintMerged reports is
// refused with the same findings.
func MergeMetrics(docs [][]byte) (*Metrics, error) {
	set, err := readRankSetOf(docs, "metrics")
	if err != nil {
		return nil, err
	}
	return set.mergedMetrics(), nil
}

func (s *rankSet) mergedMetrics() *Metrics {
	ranks := len(s.metrics)
	out := &Metrics{Ranks: ranks, TrafficBytes: make([][]int64, ranks), TrafficMsgs: make([][]int64, ranks)}
	for r, m := range s.metrics {
		out.Events += m.Events
		out.PerRank = append(out.PerRank, m.PerRank[r])
		out.TrafficBytes[r] = m.TrafficBytes[r]
		out.TrafficMsgs[r] = m.TrafficMsgs[r]
	}
	out.total()
	return out
}

// Merge folds per-rank artifacts of either kind (docs[r] is rank r's
// file) into the single document on w, the kind sniffed from the
// documents' shape.
func Merge(w io.Writer, docs [][]byte) error {
	set, err := readRankSet(docs)
	if err != nil {
		return err
	}
	if set.kind == "trace" {
		return set.writeTrace(w)
	}
	return writeJSON(w, set.mergedMetrics())
}

// LintMerged validates a set of per-rank artifacts (docs[r] is rank r's
// file) as one coherent launched run, by the checks readRankSet runs
// for every merge. One document degrades to its single-file lint.
func LintMerged(docs [][]byte) error {
	if len(docs) == 1 {
		return LintFile(docs[0])
	}
	_, err := readRankSet(docs)
	return err
}

func mat(n int) [][]int64 {
	m := make([][]int64, n)
	for i := range m {
		m[i] = make([]int64, n)
	}
	return m
}

// argInt reads an integer-valued arg from a parsed Chrome event (JSON
// numbers decode as float64).
func argInt(args map[string]any, key string) (int64, bool) {
	v, ok := args[key]
	if !ok {
		return 0, false
	}
	f, ok := v.(float64)
	if !ok {
		return 0, false
	}
	return int64(f), true
}

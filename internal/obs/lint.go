package obs

import (
	"encoding/json"
	"errors"
	"fmt"
)

// This file validates the JSON artifacts the exporters write, so CI can
// smoke-check a `-trace`/`-metrics` run (`peachy obs-lint file...`)
// without a browser in the loop.

// LintFile validates data as either a Chrome trace or a metrics document,
// sniffing the shape from the top-level keys.
func LintFile(data []byte) error {
	kind, err := sniffDoc(data)
	if err != nil {
		return err
	}
	if kind == "trace" {
		return LintTrace(data)
	}
	return LintMetrics(data)
}

// sniffDoc names a document's kind, "trace" or "metrics", from its
// top-level keys.
func sniffDoc(data []byte) (string, error) {
	var top map[string]json.RawMessage
	if err := json.Unmarshal(data, &top); err != nil {
		return "", fmt.Errorf("not a JSON object: %w", err)
	}
	if _, ok := top["traceEvents"]; ok {
		return "trace", nil
	}
	if _, ok := top["per_rank"]; ok {
		return "metrics", nil
	}
	return "", errors.New(`unrecognized document: neither "traceEvents" (Chrome trace) nor "per_rank" (metrics) present`)
}

// traceEvent is one parsed Chrome trace entry: chromeEvent's fields, with
// pointers where the lint must tell a missing field from a zero one.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   *string        `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  *int           `json:"tid"`
	Ts   *float64       `json:"ts"`
	Dur  *float64       `json:"dur"`
	S    string         `json:"s"`
	Args map[string]any `json:"args"`
}

// LintTrace validates the Chrome trace_event shape WriteChrome emits:
// a traceEvents array whose entries have name/ph/pid/tid, complete ("X")
// events carry ts and dur, and every rank track is named by a metadata
// event.
func LintTrace(data []byte) error {
	_, err := parseTrace(data)
	return err
}

// parseTrace parses a Chrome trace and runs LintTrace's checks on it.
func parseTrace(data []byte) ([]traceEvent, error) {
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	if len(doc.TraceEvents) == 0 {
		return nil, fmt.Errorf("trace: empty traceEvents array")
	}
	named := map[int]bool{}
	used := map[int]bool{}
	for i, ev := range doc.TraceEvents {
		if ev.Ph == nil || ev.Tid == nil {
			return nil, fmt.Errorf("trace: event %d missing ph or tid", i)
		}
		if ev.Name == "" {
			return nil, fmt.Errorf("trace: event %d has empty name", i)
		}
		switch *ev.Ph {
		case "X":
			if ev.Ts == nil || ev.Dur == nil {
				return nil, fmt.Errorf("trace: complete event %d (%s) missing ts or dur", i, ev.Name)
			}
			if *ev.Dur < 0 {
				return nil, fmt.Errorf("trace: complete event %d (%s) has negative dur %g", i, ev.Name, *ev.Dur)
			}
			used[*ev.Tid] = true
		case "i":
			if ev.Ts == nil {
				return nil, fmt.Errorf("trace: instant event %d (%s) missing ts", i, ev.Name)
			}
			used[*ev.Tid] = true
		case "M":
			if ev.Name == "thread_name" {
				named[*ev.Tid] = true
			}
		default:
			return nil, fmt.Errorf("trace: event %d has unsupported phase %q", i, *ev.Ph)
		}
	}
	for tid := range used {
		if !named[tid] {
			return nil, fmt.Errorf("trace: track tid=%d has events but no thread_name metadata", tid)
		}
	}
	return doc.TraceEvents, nil
}

// LintMetrics validates the metrics document shape WriteMetrics emits and
// its internal consistency: per-rank list and traffic matrices sized to
// ranks, and matrix totals agreeing with the counter totals.
func LintMetrics(data []byte) error {
	_, err := parseMetrics(data)
	return err
}

// parseMetrics parses a metrics document and runs LintMetrics' checks on
// it.
func parseMetrics(data []byte) (*Metrics, error) {
	var m Metrics
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	if m.Ranks < 1 {
		return nil, fmt.Errorf("metrics: ranks = %d, want >= 1", m.Ranks)
	}
	if len(m.PerRank) != m.Ranks {
		return nil, fmt.Errorf("metrics: per_rank has %d entries for %d ranks", len(m.PerRank), m.Ranks)
	}
	if len(m.TrafficBytes) != m.Ranks || len(m.TrafficMsgs) != m.Ranks {
		return nil, fmt.Errorf("metrics: traffic matrices are %dx? for %d ranks", len(m.TrafficBytes), m.Ranks)
	}
	var matrixBytes, matrixMsgs, totalBytes, totalMsgs int64
	for r := 0; r < m.Ranks; r++ {
		if len(m.TrafficBytes[r]) != m.Ranks || len(m.TrafficMsgs[r]) != m.Ranks {
			return nil, fmt.Errorf("metrics: traffic row %d has %d columns for %d ranks", r, len(m.TrafficBytes[r]), m.Ranks)
		}
		if m.PerRank[r].Rank != r {
			return nil, fmt.Errorf("metrics: per_rank[%d].rank = %d", r, m.PerRank[r].Rank)
		}
		for d := 0; d < m.Ranks; d++ {
			matrixBytes += m.TrafficBytes[r][d]
			matrixMsgs += m.TrafficMsgs[r][d]
		}
		totalBytes += m.PerRank[r].BytesSent
		totalMsgs += m.PerRank[r].MsgsSent
	}
	if matrixBytes != totalBytes || matrixMsgs != totalMsgs {
		return nil, fmt.Errorf("metrics: traffic matrix totals (%d msgs, %d bytes) disagree with per-rank counters (%d msgs, %d bytes)",
			matrixMsgs, matrixBytes, totalMsgs, totalBytes)
	}
	if totalBytes != m.TotalBytes || totalMsgs != m.TotalMsgs {
		return nil, fmt.Errorf("metrics: per-rank sums (%d msgs, %d bytes) disagree with totals (%d msgs, %d bytes)",
			totalMsgs, totalBytes, m.TotalMsgs, m.TotalBytes)
	}
	return &m, nil
}

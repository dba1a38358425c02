package main

import (
	"fmt"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Helpers for working with per-rank observability artifact sets — the
// trace.json.rank0..rankP-1 files a `peachy launch` run leaves behind.
// obs-merge folds one complete set into a single document; obs-lint uses
// the same grouping to run cross-file conservation checks on top of the
// per-file lint.

// expandArtifacts expands glob patterns in args (for callers whose shell
// did not) and returns the flat path list.
func expandArtifacts(args []string) ([]string, error) {
	var out []string
	for _, a := range args {
		if !strings.ContainsAny(a, "*?[") {
			out = append(out, a)
			continue
		}
		m, err := filepath.Glob(a)
		if err != nil {
			return nil, fmt.Errorf("bad pattern %q: %w", a, err)
		}
		if len(m) == 0 {
			return nil, fmt.Errorf("pattern %q matched no files", a)
		}
		sort.Strings(m)
		out = append(out, m...)
	}
	return out, nil
}

var rankSuffixRe = regexp.MustCompile(`^(.*)\.rank(\d+)$`)

// splitRankPath splits "<base>.rank<r>" into its parts; ok is false for
// paths without the per-rank suffix.
func splitRankPath(path string) (base string, rank int, ok bool) {
	m := rankSuffixRe.FindStringSubmatch(path)
	if m == nil {
		return "", 0, false
	}
	r, err := strconv.Atoi(m[2])
	if err != nil || r < 0 {
		return "", 0, false
	}
	return m[1], r, true
}

// rankSeries validates that paths form exactly one complete per-rank set
// base.rank0 .. base.rank(P-1), each file once, and returns them in rank
// order.
func rankSeries(paths []string) (base string, ordered []string, err error) {
	for _, p := range paths {
		if _, _, ok := splitRankPath(p); !ok {
			return "", nil, fmt.Errorf("%s: not a per-rank artifact (want <base>.rank<r>, as written under peachy launch)", p)
		}
	}
	bases, groups := rankGroups(paths)
	if len(bases) != 1 || len(groups[bases[0]]) != len(paths) {
		return "", nil, fmt.Errorf("%d files are not one complete set <base>.rank0 .. <base>.rank<P-1>, each once — merge one run's files at a time", len(paths))
	}
	return bases[0], groups[bases[0]], nil
}

// rankGroups partitions paths into complete per-rank sets, in rank order
// — numeric order, so rank 10 sorts after rank 2 where a lexical sort
// would not — keyed and sorted by base path. Paths without the suffix,
// and incomplete sets, are left out: the caller lints those per file
// only.
func rankGroups(paths []string) (bases []string, groups map[string][]string) {
	byBase := map[string]map[int]string{}
	for _, p := range paths {
		b, r, ok := splitRankPath(p)
		if !ok {
			continue
		}
		if byBase[b] == nil {
			byBase[b] = map[int]string{}
		}
		byBase[b][r] = p
	}
	groups = map[string][]string{}
	for b, byRank := range byBase {
		ordered := make([]string, 0, len(byRank))
		for r := 0; r < len(byRank); r++ {
			p, ok := byRank[r]
			if !ok {
				ordered = nil
				break
			}
			ordered = append(ordered, p)
		}
		if ordered != nil {
			groups[b] = ordered
			bases = append(bases, b)
		}
	}
	sort.Strings(bases)
	return bases, groups
}

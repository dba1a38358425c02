package knn

import (
	"math"

	"repro/internal/dataio"
	"repro/internal/heapk"
	"repro/internal/par"
)

// Metric selects the distance function — the datahub.io instances the
// assignment points at span domains where different metrics shine.
type Metric int

const (
	// Euclidean compares by squared L2 distance (the default everywhere
	// else in this package).
	Euclidean Metric = iota
	// Manhattan compares by L1 distance.
	Manhattan
	// Cosine compares by 1 - cosine similarity (zero vectors are treated
	// as maximally distant).
	Cosine
)

// String names the metric.
func (m Metric) String() string {
	switch m {
	case Euclidean:
		return "euclidean"
	case Manhattan:
		return "manhattan"
	case Cosine:
		return "cosine"
	}
	return "unknown"
}

// Distance computes the metric between two points.
func (m Metric) Distance(a, b []float64) float64 {
	switch m {
	case Manhattan:
		s := 0.0
		for i, v := range a {
			s += math.Abs(v - b[i])
		}
		return s
	case Cosine:
		var dot, na, nb float64
		for i, v := range a {
			dot += v * b[i]
			na += v * v
			nb += b[i] * b[i]
		}
		if na == 0 || nb == 0 {
			return 2 // maximal: 1 - (-1)
		}
		return 1 - dot/math.Sqrt(na*nb)
	default:
		s := 0.0
		for i, v := range a {
			d := v - b[i]
			s += d * d
		}
		return s
	}
}

// VoteWeighted returns the class with the largest inverse-distance weight
// among the candidates — the classic weighted-kNN extension; exact-match
// candidates (distance 0) dominate. Ties break toward the smaller label.
func VoteWeighted(cands []Candidate) int {
	// Exact matches short-circuit.
	exact := map[int]int{}
	for _, c := range cands {
		if c.Dist == 0 {
			exact[c.Class]++
		}
	}
	if len(exact) > 0 {
		best, bestN := -1, -1
		for class, n := range exact {
			if n > bestN || (n == bestN && class < best) {
				best, bestN = class, n
			}
		}
		return best
	}
	weights := map[int]float64{}
	for _, c := range cands {
		weights[c.Class] += 1 / c.Dist
	}
	best, bestW := -1, math.Inf(-1)
	for class, w := range weights {
		if w > bestW || (w == bestW && class < best) {
			best, bestW = class, w
		}
	}
	return best
}

// Options configures ClassifyOpts.
type Options struct {
	// K is the neighbour count (default 5).
	K int
	// Metric selects the distance (default Euclidean).
	Metric Metric
	// Weighted selects inverse-distance voting instead of majority.
	Weighted bool
	// Workers is the parallel width (<= 0: GOMAXPROCS).
	Workers int
}

// ClassifyOpts classifies queries with the configured metric and voting
// rule, in parallel over queries.
func ClassifyOpts(db *dataio.Dataset, queries [][]float64, opts Options) []int {
	if opts.K <= 0 {
		opts.K = 5
	}
	out := make([]int, len(queries))
	par.For(len(queries), opts.Workers, func(qi int) {
		h := heapk.New[int](opts.K)
		for i, p := range db.Points {
			if d := opts.Metric.Distance(queries[qi], p); d < h.Bound() {
				h.Offer(d, db.Labels[i])
			}
		}
		items := h.Sorted()
		cands := make([]Candidate, len(items))
		for i, it := range items {
			cands[i] = Candidate{it.Priority, it.Value}
		}
		if opts.Weighted {
			out[qi] = VoteWeighted(cands)
		} else {
			out[qi] = Vote(cands)
		}
	})
	return out
}

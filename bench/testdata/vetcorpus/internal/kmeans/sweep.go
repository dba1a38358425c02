package kmeans

import (
	"repro/internal/linalg"
	"repro/internal/par"
	"repro/internal/stats"
)

// SweepResult is the outcome for one candidate K in a model-selection
// sweep.
type SweepResult struct {
	K          int
	WCSS       float64
	Silhouette float64
	Iterations int
}

// SweepK clusters points for every K in ks (in parallel over Ks — each an
// independent task, like the HPO farm) and reports WCSS for the elbow
// method plus the mean silhouette on a bounded sample. It is the classic
// "how do I choose K?" classroom exercise on top of the assignment.
func SweepK(points [][]float64, ks []int, opts Options, sampleCap int) []SweepResult {
	if sampleCap <= 0 {
		sampleCap = 500
	}
	out := make([]SweepResult, len(ks))
	par.For(len(ks), opts.Workers, func(i int) {
		o := opts
		o.K = ks[i]
		// The sweep itself is the parallel axis; run each fit serially.
		o.Workers = 1
		o.Strategy = Sequential
		res := Run(points, o)

		// Silhouette on a deterministic sample (O(n^2) otherwise).
		n := len(points)
		stride := 1
		if n > sampleCap {
			stride = n / sampleCap
		}
		var sampleIdx []int
		for j := 0; j < n; j += stride {
			sampleIdx = append(sampleIdx, j)
		}
		assign := make([]int, len(sampleIdx))
		for j, idx := range sampleIdx {
			assign[j] = res.Assign[idx]
		}
		sil := stats.Silhouette(len(sampleIdx), o.K, assign, func(a, b int) float64 {
			return linalg.SqDist(points[sampleIdx[a]], points[sampleIdx[b]])
		})
		out[i] = SweepResult{K: o.K, WCSS: res.WCSS(points), Silhouette: sil, Iterations: res.Iterations}
	})
	return out
}

// BestKBySilhouette returns the sweep entry with the highest silhouette.
func BestKBySilhouette(results []SweepResult) SweepResult {
	best := results[0]
	for _, r := range results[1:] {
		if r.Silhouette > best.Silhouette {
			best = r
		}
	}
	return best
}

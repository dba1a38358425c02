package kmeans

import "repro/internal/prng"

// MiniBatch runs mini-batch K-means (Sculley's web-scale variant): each
// iteration samples batch points, assigns them to their nearest centroid,
// and nudges each centroid toward its assigned sample points with a
// per-centroid learning rate of 1/count. The result approaches full
// K-means quality at a fraction of the per-iteration cost — the natural
// next step after the assignment when n outgrows memory bandwidth.
//
// The final Assign is a full assignment pass against the learned
// centroids, so Result.WCSS is directly comparable to Run's.
func MiniBatch(points [][]float64, opts Options, batch, iters int) *Result {
	n := len(points)
	if n == 0 {
		return &Result{Converged: true}
	}
	opts.defaults(n)
	if batch <= 0 {
		batch = 256
	}
	if batch > n {
		batch = n
	}
	if iters <= 0 {
		iters = 100
	}
	dim := len(points[0])

	var cents [][]float64
	if opts.Init == PlusPlusInit {
		cents = initPlusPlus(points, opts.K, opts.Seed)
	} else {
		cents = initCentroids(points, opts.K, opts.Seed)
	}
	counts := make([]float64, opts.K)
	r := prng.New(opts.Seed ^ 0xabcdef)

	var ci centIndex
	for it := 0; it < iters; it++ {
		// Sample the batch and cache assignments. Centroids moved last
		// iteration, so refresh the index first.
		ci.rebuild(cents)
		idx := make([]int, batch)
		assign := make([]int, batch)
		for b := 0; b < batch; b++ {
			idx[b] = r.Intn(n)
			assign[b] = ci.nearest(points[idx[b]])
		}
		// Per-centroid gradient step.
		for b := 0; b < batch; b++ {
			c := assign[b]
			counts[c]++
			eta := 1 / counts[c]
			cent := cents[c]
			p := points[idx[b]]
			for d := 0; d < dim; d++ {
				cent[d] = (1-eta)*cent[d] + eta*p[d]
			}
		}
	}

	// Full final assignment.
	ci.rebuild(cents)
	full := make([]int, n)
	for i, p := range points {
		full[i] = ci.nearest(p)
	}
	return &Result{
		Centroids:  cents,
		Assign:     full,
		Iterations: iters,
		Converged:  true,
	}
}

// QualityGap returns (approx - exact) / exact for two results' WCSS over
// the same points — the relative quality loss of an approximation.
func QualityGap(points [][]float64, approx, exact *Result) float64 {
	e := exact.WCSS(points)
	if e == 0 {
		return 0
	}
	return (approx.WCSS(points) - e) / e
}

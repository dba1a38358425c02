package kmeans

import (
	"repro/internal/linalg"
	"repro/internal/prng"
)

// Init selects the initial-centroid strategy.
type Init int

const (
	// RandomInit picks K distinct random points (the assignment's
	// starter-code behaviour).
	RandomInit Init = iota
	// PlusPlusInit is k-means++ (Arthur & Vassilvitskii): each next
	// centroid is drawn with probability proportional to its squared
	// distance from the nearest centroid chosen so far. One of the
	// "further optimizations" the assignment invites.
	PlusPlusInit
)

// String names the init strategy.
func (i Init) String() string {
	if i == PlusPlusInit {
		return "kmeans++"
	}
	return "random"
}

// initPlusPlus returns K centroids via the k-means++ seeding rule,
// deterministic per seed.
func initPlusPlus(points [][]float64, k int, seed uint64) [][]float64 {
	r := prng.New(seed)
	n := len(points)
	cents := make([][]float64, 0, k)
	cents = append(cents, append([]float64(nil), points[r.Intn(n)]...))

	// minD2[i] is the squared distance from point i to its nearest
	// chosen centroid; updated incrementally as centroids are added.
	minD2 := make([]float64, n)
	total := 0.0
	for i, p := range points {
		minD2[i] = linalg.SqDist(p, cents[0])
		total += minD2[i]
	}
	for len(cents) < k {
		// Weighted draw; a degenerate all-zero distance field (all
		// points identical to some centroid) falls back to uniform.
		var next int
		if total <= 0 {
			next = r.Intn(n)
		} else {
			w := r.Float64() * total
			acc := 0.0
			next = n - 1
			for i, d := range minD2 {
				acc += d
				if acc >= w {
					next = i
					break
				}
			}
		}
		c := append([]float64(nil), points[next]...)
		cents = append(cents, c)
		for i, p := range points {
			if d := linalg.SqDist(p, c); d < minD2[i] {
				total -= minD2[i] - d
				minD2[i] = d
			}
		}
	}
	return cents
}

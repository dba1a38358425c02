package kmeans

import (
	"math"
	"testing"

	"repro/internal/prng"
)

// refScores computes the kernel's scores for p with the same operations
// in the same order: the lane layout for K ≤ nearestLanes, the paired
// row-wise dot products above it.
func refScores(ci *centIndex, p []float64) []float64 {
	scores := make([]float64, ci.k)
	for c := range scores {
		if ci.k <= nearestLanes {
			s := ci.n8[c]
			for d, pv := range p {
				m := -2 * pv
				s += m * ci.t8[d*nearestLanes+c]
			}
			scores[c] = s
			continue
		}
		row := ci.flat[c*ci.dim : (c+1)*ci.dim]
		var s0, s1 float64
		i := 0
		for ; i+1 < len(row); i += 2 {
			s0 += p[i] * row[i]
			s1 += p[i+1] * row[i+1]
		}
		if i < len(row) {
			s0 += p[i] * row[i]
		}
		scores[c] = ci.norm[c] - 2*(s0+s1)
	}
	return scores
}

// refNearest is the reference argmin: a float `<` scan of refScores, so
// the first minimum wins.
func refNearest(ci *centIndex, p []float64) int {
	scores := refScores(ci, p)
	best := 0
	for c := 1; c < len(scores); c++ {
		if scores[c] < scores[best] {
			best = c
		}
	}
	return best
}

// mixed draws a coordinate of random sign and a magnitude between 1e-6
// and 1e6, or an exact ±0 one time in eight.
func mixed(r *prng.Rand) float64 {
	switch r.Intn(16) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	}
	v := math.Pow(10, r.Range(-6, 6))
	if r.Intn(2) == 0 {
		v = -v
	}
	return v
}

// nearestCases builds centroid sets for every K in 1..16 and every d,
// each with the points to assign against them: seeded points whose
// coordinates share one magnitude or mix them, every centroid itself,
// the origin as +0 and −0, and each centroid with one coordinate set to
// ±0. Where K allows, centroid K−1 repeats centroid 0 and centroid 2
// mirrors centroid 1, so exact ties occur.
func nearestCases(fn func(k, d int, cents, points [][]float64)) {
	r := prng.New(18)
	draws := []func() float64{func() float64 { return mixed(r) }}
	for _, scale := range []float64{1e-6, 1e-3, 1, 1e3, 1e6} {
		draws = append(draws, func() float64 { return r.Range(-scale, scale) })
	}
	for k := 1; k <= 16; k++ {
		for _, d := range []int{1, 2, 3, 4, 5, 8, 13} {
			for _, draw := range draws {
				vec := func() []float64 {
					v := make([]float64, d)
					for i := range v {
						v[i] = draw()
					}
					return v
				}
				cents := make([][]float64, k)
				for c := range cents {
					cents[c] = vec()
				}
				if k >= 2 {
					cents[k-1] = append([]float64(nil), cents[0]...)
				}
				if k >= 3 {
					for i, v := range cents[1] {
						cents[2][i] = -v
					}
				}
				var points [][]float64
				for i := 0; i < 40; i++ {
					points = append(points, vec())
				}
				points = append(points, cents...)
				negZero := make([]float64, d)
				for i := range negZero {
					negZero[i] = math.Copysign(0, -1)
				}
				points = append(points, make([]float64, d), negZero)
				for _, c := range cents {
					p := append([]float64(nil), c...)
					p[r.Intn(d)] = math.Copysign(0, float64(r.Intn(2))-0.5)
					points = append(points, p)
				}
				fn(k, d, cents, points)
			}
		}
	}
}

// TestNearestMatchesReference checks the branch-free argmin against the
// float `<` scan on identical scores, for both kernels. On finite input
// every point of nearestCases gets the reference's index, exact ties
// included, and no score is −0, the one value whose key orders
// differently. A NaN or ±Inf coordinate, in a point or in a centroid,
// can turn scores NaN, which the keys order by their sign bit, so the
// index may differ from the scan's; it must still be in [0, K).
func TestNearestMatchesReference(t *testing.T) {
	t.Run("finite", func(t *testing.T) {
		var ci centIndex
		checked := 0
		nearestCases(func(k, d int, cents, points [][]float64) {
			ci.rebuild(cents)
			for _, p := range points {
				for c, s := range refScores(&ci, p) {
					if s == 0 && math.Signbit(s) {
						t.Fatalf("K=%d d=%d p=%v: score of centroid %d is -0", k, d, p, c)
					}
				}
				got, want := ci.nearest(p), refNearest(&ci, p)
				if got != want {
					t.Fatalf("K=%d d=%d p=%v cents=%v: nearest %d, reference %d (scores %v)",
						k, d, p, cents, got, want, refScores(&ci, p))
				}
				checked++
			}
		})
		t.Logf("%d points checked", checked)
	})
	t.Run("nonfinite", func(t *testing.T) {
		var ci centIndex
		bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(math.NaN(), -1)}
		r := prng.New(19)
		nearestCases(func(k, d int, cents, points [][]float64) {
			check := func(p []float64) {
				if got := ci.nearest(p); got < 0 || got >= k {
					t.Fatalf("K=%d d=%d p=%v cents=%v: nearest %d outside [0, %d)", k, d, p, cents, got, k)
				}
			}
			ci.rebuild(cents)
			for _, p := range points[:8] {
				for _, v := range bad {
					q := append([]float64(nil), p...)
					q[r.Intn(d)] = v
					check(q)
					for i := range q {
						q[i] = v
					}
					check(q)
				}
			}
			for _, v := range bad {
				c := r.Intn(k)
				old := cents[c][0]
				cents[c][0] = v
				ci.rebuild(cents)
				for _, p := range points[:8] {
					check(p)
				}
				cents[c][0] = old
			}
		})
	})
}

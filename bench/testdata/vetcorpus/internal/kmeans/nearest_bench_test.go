package kmeans

import (
	"testing"

	"repro/internal/dataio"
)

// BenchmarkNearest times one full assignment sweep (20000 points, K=8,
// d=8 — the C4 benchmark shape) through the centroid index: the
// register-resident lane kernel against the row-major fallback.
func BenchmarkNearest(b *testing.B) {
	ds := dataio.GaussianMixture(444, 20000, 4, 8, 3.0)
	cents := initCentroids(ds.Points, 8, 5)
	var ci centIndex
	ci.rebuild(cents)
	var sink int
	b.Run("lanes", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, p := range ds.Points {
				sink += ci.nearest(p)
			}
		}
	})
	b.Run("rowwise", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, p := range ds.Points {
				sink += ci.nearestRowwise(p)
			}
		}
	})
	_ = sink
}

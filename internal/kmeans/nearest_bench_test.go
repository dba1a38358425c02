package kmeans

import (
	"testing"

	"repro/internal/dataio"
)

// BenchmarkNearest times one assignment sweep of 20000 points in d=4
// through the centroid index and reports ns per point:
//
//   - lanes: K=8 well-separated blobs (spread 3) on the register-resident
//     lane kernel;
//   - rowwise: the same index through the row-major fallback;
//   - overlap: K=8 overlapping blobs (spread 50, the kmeans-c4 data), where
//     the winning centroid changes from point to point;
//   - k16: K=16 overlapping blobs, which nearest hands to the row-wise
//     kernel.
func BenchmarkNearest(b *testing.B) {
	index := func(spread float64, k int) (*centIndex, [][]float64) {
		ds := dataio.GaussianMixture(444, 20000, 4, k, spread)
		ci := new(centIndex)
		ci.rebuild(initCentroids(ds.Points, k, 5))
		return ci, ds.Points
	}
	perPoint := func(b *testing.B, n int) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/point")
	}
	var sink int
	ci, points := index(3, 8)
	b.Run("lanes", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, p := range points {
				sink += ci.nearest(p)
			}
		}
		perPoint(b, len(points))
	})
	b.Run("rowwise", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, p := range points {
				sink += ci.nearestRowwise(p)
			}
		}
		perPoint(b, len(points))
	})
	ci, points = index(50, 8)
	b.Run("overlap", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, p := range points {
				sink += ci.nearest(p)
			}
		}
		perPoint(b, len(points))
	})
	ci, points = index(50, 16)
	b.Run("k16", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, p := range points {
				sink += ci.nearest(p)
			}
		}
		perPoint(b, len(points))
	})
	_ = sink
}

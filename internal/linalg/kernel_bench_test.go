package linalg

import (
	"math"
	"strconv"
	"testing"
)

func sqDistScalar(a, b []float64) float64 {
	s := 0.0
	for i, v := range a {
		d := v - b[i]
		s += d * d
	}
	return s
}

func benchVecs(d int) (a, b []float64) {
	a = make([]float64, d)
	b = make([]float64, d)
	for i := range a {
		a[i] = float64(i%7) * 0.25
		b[i] = float64(i%5) * 0.5
	}
	return
}

var (
	sinkF  float64
	sinkF4 [4]float64
)

func BenchmarkSqDistKernels(b *testing.B) {
	for _, d := range []int{8, 40} {
		a, bb := benchVecs(d)
		b.Run("scalar/d"+strconv.Itoa(d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkF = sqDistScalar(a, bb)
			}
		})
		b.Run("unrolled/d"+strconv.Itoa(d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkF = SqDist(a, bb)
			}
		})
		b.Run("boundedInf/d"+strconv.Itoa(d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkF = SqDistBounded(a, bb, math.Inf(1))
			}
		})
		b.Run("boundedTight/d"+strconv.Itoa(d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkF = SqDistBounded(a, bb, 1.0)
			}
		})
		// Four distinct rows against one vector, as the per-point kNN
		// map computes them; ns/dist reads on the scale of the other
		// rows' ns/op.
		var rows [4][]float64
		for j := range rows {
			rows[j] = make([]float64, d)
			for i := range rows[j] {
				rows[j][i] = float64((i+j)%5) * 0.5
			}
		}
		b.Run("four/d"+strconv.Itoa(d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkF4[0], sinkF4[1], sinkF4[2], sinkF4[3] = SqDist4(a, rows[0], rows[1], rows[2], rows[3])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(4*b.N), "ns/dist")
		})
	}
}

// Package linalg provides the small dense matrix and vector kernels the
// neural-network substrate needs: row-major matrices, GEMM, axpy-style
// updates, softmax and argmax. Everything is float64 and allocation-aware
// so training loops can reuse buffers.
package linalg

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols
}

// NewMatrix allocates a zero matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("linalg: negative dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from row slices, which must all share a length.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic("linalg: ragged rows")
		}
		copy(m.Row(i), r)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Zero clears all elements in place.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// String renders a small matrix for debugging.
func (m *Matrix) String() string {
	return fmt.Sprintf("Matrix(%dx%d)", m.Rows, m.Cols)
}

// MatMul computes dst = a * b. dst must be preallocated with shape
// (a.Rows, b.Cols) and must not alias a or b. It returns dst.
func MatMul(dst, a, b *Matrix) *Matrix {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("linalg: MatMul shape mismatch (%dx%d)*(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	dst.Zero()
	// ikj loop order: stream through b's rows for cache friendliness.
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for k := 0; k < a.Cols; k++ {
			aik := arow[k]
			if aik == 0 {
				continue
			}
			brow := b.Row(k)
			for j := range brow {
				drow[j] += aik * brow[j]
			}
		}
	}
	return dst
}

// MatMulATB computes dst = aᵀ * b (shapes: a is (n,p), b is (n,q),
// dst is (p,q)). Used for weight gradients without materialising aᵀ.
func MatMulATB(dst, a, b *Matrix) *Matrix {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic("linalg: MatMulATB shape mismatch")
	}
	dst.Zero()
	for n := 0; n < a.Rows; n++ {
		arow := a.Row(n)
		brow := b.Row(n)
		for i, av := range arow {
			if av == 0 {
				continue
			}
			drow := dst.Row(i)
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
	return dst
}

// MatMulABT computes dst = a * bᵀ (shapes: a is (n,q), b is (p,q),
// dst is (n,p)). Used for input gradients without materialising bᵀ.
func MatMulABT(dst, a, b *Matrix) *Matrix {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic("linalg: MatMulABT shape mismatch")
	}
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for j := 0; j < b.Rows; j++ {
			brow := b.Row(j)
			s := 0.0
			for k, av := range arow {
				s += av * brow[k]
			}
			drow[j] = s
		}
	}
	return dst
}

// Axpy computes y[i] += alpha*x[i].
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("linalg: Axpy length mismatch")
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

// Scale multiplies every element of x by alpha in place.
func Scale(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// Dot returns the inner product of x and y.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("linalg: Dot length mismatch")
	}
	s := 0.0
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// AddRowVec adds vector v to every row of m in place (bias addition).
func AddRowVec(m *Matrix, v []float64) {
	if len(v) != m.Cols {
		panic("linalg: AddRowVec length mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, b := range v {
			row[j] += b
		}
	}
}

// Argmax returns the index of the largest element of x (first on ties).
func Argmax(x []float64) int {
	best := 0
	for i := 1; i < len(x); i++ {
		if x[i] > x[best] {
			best = i
		}
	}
	return best
}

// Softmax writes the softmax of x into dst (which may alias x) using the
// max-subtraction trick for numerical stability.
func Softmax(dst, x []float64) {
	if len(dst) != len(x) {
		panic("linalg: Softmax length mismatch")
	}
	max := x[Argmax(x)]
	sum := 0.0
	for i, v := range x {
		e := math.Exp(v - max)
		dst[i] = e
		sum += e
	}
	for i := range dst {
		dst[i] /= sum
	}
}

// sqDistUnrollMin is the vector length at which the multi-accumulator
// kernels beat the plain scalar loop (measured: scalar wins at d=8,
// unrolled wins at d=40; see kernel_bench_test.go). SqDist and
// SqDistBounded must dispatch on the same threshold so below-bound
// results stay bit-identical between them. Below it a distance is one
// chain of dependent adds, so it is bound by add latency, not by
// arithmetic; a caller with several rows against one vector overlaps
// four chains with SqDist4.
const sqDistUnrollMin = 16

// SqDist returns the squared Euclidean distance between a and b — the
// kernel at the heart of both kNN and K-means.
func SqDist(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: SqDist length mismatch")
	}
	b = b[:len(a)]
	if len(a) < sqDistUnrollMin {
		s := 0.0
		for i, v := range a {
			d := v - b[i]
			s += d * d
		}
		return s
	}
	// Four independent accumulators break the add-latency dependency
	// chain; this loop is the single hottest kernel of the kNN and
	// K-means assignments.
	var s0, s1, s2, s3, tail float64
	i := 0
	for ; i+3 < len(a); i += 4 {
		d0 := a[i] - b[i]
		d1 := a[i+1] - b[i+1]
		d2 := a[i+2] - b[i+2]
		d3 := a[i+3] - b[i+3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		tail += d * d
	}
	return ((s0 + s1) + (s2 + s3)) + tail
}

// SqDist4 returns the squared Euclidean distances from a to b0, b1, b2
// and b3, each bit-identical to SqDist(a, bj). Below sqDistUnrollMin one
// loop takes the scalar path's steps for all four rows, so their four
// add chains overlap; at or above it SqDist's own accumulators already
// do, and SqDist4 calls it four times. Any length mismatch panics as in
// SqDist.
func SqDist4(a, b0, b1, b2, b3 []float64) (s0, s1, s2, s3 float64) {
	if len(a) != len(b0) || len(a) != len(b1) || len(a) != len(b2) || len(a) != len(b3) {
		panic("linalg: SqDist length mismatch")
	}
	if len(a) >= sqDistUnrollMin {
		return SqDist(a, b0), SqDist(a, b1), SqDist(a, b2), SqDist(a, b3)
	}
	b0, b1, b2, b3 = b0[:len(a)], b1[:len(a)], b2[:len(a)], b3[:len(a)]
	for i, v := range a {
		d0 := v - b0[i]
		d1 := v - b1[i]
		d2 := v - b2[i]
		d3 := v - b3[i]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	return s0, s1, s2, s3
}

// SqDistBounded is SqDist with an early exit: once the partial sum
// reaches bound the scan aborts and returns that partial (which is
// >= bound). Callers that only ask "is the distance below bound?" — a
// k-nearest heap threshold, a current-best centroid distance — get the
// exact SqDist value whenever it is below bound, and an exit after a
// fraction of the dimensions otherwise. The accumulation order matches
// SqDist exactly, so below-bound results are bit-identical to SqDist's.
func SqDistBounded(a, b []float64, bound float64) float64 {
	if len(a) != len(b) {
		panic("linalg: SqDist length mismatch")
	}
	b = b[:len(a)]
	if len(a) < sqDistUnrollMin {
		// Too short for the early exit to pay for its checks; mirror
		// SqDist's scalar path exactly.
		s := 0.0
		for i, v := range a {
			d := v - b[i]
			s += d * d
		}
		return s
	}
	// Checking the bound costs a serialising reduction over all four
	// accumulators, so test only once per 16 elements: aborts still skip
	// the bulk of a far vector, while near-complete scans pay few checks.
	var s0, s1, s2, s3, tail float64
	i := 0
	for ; i+15 < len(a); i += 16 {
		for j := i; j < i+16; j += 4 {
			d0 := a[j] - b[j]
			d1 := a[j+1] - b[j+1]
			d2 := a[j+2] - b[j+2]
			d3 := a[j+3] - b[j+3]
			s0 += d0 * d0
			s1 += d1 * d1
			s2 += d2 * d2
			s3 += d3 * d3
		}
		if ((s0 + s1) + (s2 + s3)) >= bound {
			return (s0 + s1) + (s2 + s3)
		}
	}
	for ; i+3 < len(a); i += 4 {
		d0 := a[i] - b[i]
		d1 := a[i+1] - b[i+1]
		d2 := a[i+2] - b[i+2]
		d3 := a[i+3] - b[i+3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		tail += d * d
	}
	return ((s0 + s1) + (s2 + s3)) + tail
}

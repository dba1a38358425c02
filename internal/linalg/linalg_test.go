package linalg

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/prng"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMatMulKnown(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	dst := NewMatrix(2, 2)
	MatMul(dst, a, b)
	want := [][]float64{{19, 22}, {43, 50}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if !almostEq(dst.At(i, j), want[i][j]) {
				t.Errorf("(%d,%d)=%v want %v", i, j, dst.At(i, j), want[i][j])
			}
		}
	}
}

func TestMatMulIdentity(t *testing.T) {
	r := prng.New(2)
	a := NewMatrix(4, 4)
	for i := range a.Data {
		a.Data[i] = r.Float64()
	}
	id := NewMatrix(4, 4)
	for i := 0; i < 4; i++ {
		id.Set(i, i, 1)
	}
	dst := NewMatrix(4, 4)
	MatMul(dst, a, id)
	for i := range a.Data {
		if !almostEq(dst.Data[i], a.Data[i]) {
			t.Fatal("A*I != A")
		}
	}
}

func naiveMul(a, b *Matrix) *Matrix {
	d := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			s := 0.0
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			d.Set(i, j, s)
		}
	}
	return d
}

func randMat(r *prng.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = r.Norm(0, 1)
	}
	return m
}

func TestMatMulATB(t *testing.T) {
	r := prng.New(3)
	a := randMat(r, 5, 3)
	b := randMat(r, 5, 4)
	got := MatMulATB(NewMatrix(3, 4), a, b)
	// aT explicit
	at := NewMatrix(3, 5)
	for i := 0; i < 5; i++ {
		for j := 0; j < 3; j++ {
			at.Set(j, i, a.At(i, j))
		}
	}
	want := naiveMul(at, b)
	for i := range got.Data {
		if !almostEq(got.Data[i], want.Data[i]) {
			t.Fatal("ATB mismatch")
		}
	}
}

func TestMatMulABT(t *testing.T) {
	r := prng.New(4)
	a := randMat(r, 5, 3)
	b := randMat(r, 4, 3)
	got := MatMulABT(NewMatrix(5, 4), a, b)
	bt := NewMatrix(3, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 3; j++ {
			bt.Set(j, i, b.At(i, j))
		}
	}
	want := naiveMul(a, bt)
	for i := range got.Data {
		if !almostEq(got.Data[i], want.Data[i]) {
			t.Fatal("ABT mismatch")
		}
	}
}

func TestMatMulShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("shape mismatch did not panic")
		}
	}()
	MatMul(NewMatrix(2, 2), NewMatrix(2, 3), NewMatrix(2, 2))
}

func TestAxpyDotScale(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{10, 20, 30}
	Axpy(2, x, y)
	if y[0] != 12 || y[1] != 24 || y[2] != 36 {
		t.Errorf("Axpy %v", y)
	}
	if d := Dot(x, x); d != 14 {
		t.Errorf("Dot %v", d)
	}
	Scale(0.5, y)
	if y[0] != 6 {
		t.Errorf("Scale %v", y)
	}
}

func TestSoftmaxProperties(t *testing.T) {
	f := func(raw [6]int8) bool {
		x := make([]float64, 6)
		for i, v := range raw {
			x[i] = float64(v) / 16
		}
		dst := make([]float64, 6)
		Softmax(dst, x)
		sum := 0.0
		for _, v := range dst {
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSoftmaxStability(t *testing.T) {
	x := []float64{1000, 1001, 1002}
	dst := make([]float64, 3)
	Softmax(dst, x)
	for _, v := range dst {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("softmax overflowed")
		}
	}
	if dst[2] < dst[1] || dst[1] < dst[0] {
		t.Error("softmax not monotone")
	}
}

func TestArgmax(t *testing.T) {
	if Argmax([]float64{1, 5, 3}) != 1 {
		t.Error("argmax wrong")
	}
	if Argmax([]float64{7, 7, 7}) != 0 {
		t.Error("argmax tie should pick first")
	}
}

func TestSqDist(t *testing.T) {
	if d := SqDist([]float64{0, 0}, []float64{3, 4}); d != 25 {
		t.Errorf("SqDist = %v", d)
	}
	if d := SqDist([]float64{1, 2, 3}, []float64{1, 2, 3}); d != 0 {
		t.Errorf("self distance %v", d)
	}
}

// TestSqDist4MatchesSqDist: each of SqDist4's results has the bits of
// SqDist on its row, at every length on both sides of sqDistUnrollMin,
// for random rows and for rows drawn from NaN, ±Inf, ±0, subnormals and
// values whose squares overflow.
func TestSqDist4MatchesSqDist(t *testing.T) {
	r := prng.New(27)
	special := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -4 * math.SmallestNonzeroFloat64, 0x1p-1030,
		1e200, -1e200, math.MaxFloat64, 1, -2.5,
	}
	row := func(n int, pick func() float64) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = pick()
		}
		return v
	}
	random := func() float64 { return r.Norm(0, 1e3) }
	edge := func() float64 { return special[r.Intn(len(special))] }
	for n := 0; n <= 40; n++ {
		for trial := 0; trial < 20; trial++ {
			pick := random
			if trial%2 == 1 {
				pick = edge
			}
			a := row(n, pick)
			b := [4][]float64{row(n, pick), row(n, pick), row(n, pick), row(n, pick)}
			var got [4]float64
			got[0], got[1], got[2], got[3] = SqDist4(a, b[0], b[1], b[2], b[3])
			for j := range b {
				if want := SqDist(a, b[j]); math.Float64bits(got[j]) != math.Float64bits(want) {
					t.Fatalf("n=%d trial %d row %d: SqDist4 %v (%#x), SqDist %v (%#x)\na  %v\nb%d %v",
						n, trial, j, got[j], math.Float64bits(got[j]), want, math.Float64bits(want), a, j, b[j])
				}
			}
		}
	}
}

// TestSqDist4LengthMismatchPanics: a row of the wrong length in any of
// the four places panics with SqDist's message, below and above
// sqDistUnrollMin.
func TestSqDist4LengthMismatchPanics(t *testing.T) {
	for _, n := range []int{3, sqDistUnrollMin, 20} {
		for j := 0; j < 4; j++ {
			rows := [4][]float64{make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)}
			rows[j] = make([]float64, n+1)
			func() {
				defer func() {
					if msg := recover(); msg != "linalg: SqDist length mismatch" {
						t.Errorf("n=%d, row %d one longer: recovered %v", n, j, msg)
					}
				}()
				SqDist4(make([]float64, n), rows[0], rows[1], rows[2], rows[3])
			}()
		}
	}
}

func TestAddRowVec(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	AddRowVec(m, []float64{10, 20})
	if m.At(0, 0) != 11 || m.At(1, 1) != 24 {
		t.Error("AddRowVec wrong")
	}
}

func TestCloneAndZero(t *testing.T) {
	m := FromRows([][]float64{{1, 2}})
	c := m.Clone()
	m.Zero()
	if c.At(0, 0) != 1 || m.At(0, 0) != 0 {
		t.Error("Clone/Zero aliasing")
	}
}

func BenchmarkMatMul64(b *testing.B) {
	r := prng.New(1)
	a := randMat(r, 64, 64)
	c := randMat(r, 64, 64)
	dst := NewMatrix(64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(dst, a, c)
	}
}

package cluster

import (
	"fmt"
	"testing"
)

type wireSized struct{ n int }

func (w wireSized) WireSize() int { return w.n }

type opaquePayload struct{ a, b int }

// TestByteSizePinsEveryCase pins the wire-size model for every payload
// type byteSize understands. The cost model (and therefore every recorded
// SimTime) is downstream of these numbers: a silent change here shifts
// every experiment's simulated microseconds, so each case is pinned
// explicitly.
func TestByteSizePinsEveryCase(t *testing.T) {
	cases := []struct {
		v    any
		want int
	}{
		{nil, 0},
		{struct{}{}, 0},
		{true, 1},
		{int8(-1), 1},
		{uint8(255), 1},
		{int16(-1), 2},
		{uint16(65535), 2},
		{int32(-1), 4},
		{uint32(1), 4},
		{float32(1.5), 4},
		{int(42), 8},
		{int64(-42), 8},
		{uint(42), 8},
		{uint64(42), 8},
		{float64(3.14), 8},
		// Allreduce snapshots these scalars too (clonePayload), so they
		// must not be charged the unknown-payload estimate.
		{uintptr(42), 8},
		{complex64(1 + 2i), 8},
		{complex128(1 + 2i), 16},
		{"hello", 5},
		{"", 0},
		{[]byte{1, 2, 3}, 3},
		{[]int{1, 2, 3}, 24},
		{[]int64{1}, 8},
		{[]float64{1, 2, 3, 4}, 32},
		{[]float32{1, 2}, 8},
		{[]int32{1, 2, 3}, 12},
		{[]uint64{1, 2}, 16},
		{[]bool{true, false, true}, 3},
		// Ragged rows: 8-byte length prefix per row plus 8 bytes/element.
		{[][]float64{{1, 2}, {3}, {}}, (8 + 16) + (8 + 8) + 8},
		{[][]float64{}, 0},
		{[]string{"ab", "c"}, (2 + 8) + (1 + 8)},
		// Custom payloads report their own size via Sizer.
		{wireSized{n: 123}, 123},
		// Unknown payloads fall back to a flat 64-byte estimate.
		{opaquePayload{1, 2}, 64},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%T", tc.v), func(t *testing.T) {
			if got := byteSize(tc.v); got != tc.want {
				t.Errorf("byteSize(%#v) = %d, want %d", tc.v, got, tc.want)
			}
		})
	}
}

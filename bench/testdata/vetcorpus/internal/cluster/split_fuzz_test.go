package cluster

import "testing"

// FuzzSplitEven checks the block-decomposition invariants for arbitrary
// (n, parts): the chunks must tile the input exactly in order, differ in
// size by at most one with the front-loaded remainder, and agree with
// BlockRange about every boundary.
func FuzzSplitEven(f *testing.F) {
	f.Add(0, 1)
	f.Add(1, 1)
	f.Add(10, 3)
	f.Add(7, 16)
	f.Add(1000, 7)
	f.Fuzz(func(t *testing.T, n, parts int) {
		if n < 0 {
			n = -n
		}
		n %= 1 << 16
		if parts < 1 {
			parts = 1 - parts
		}
		parts = parts%256 + 1

		xs := make([]int, n)
		for i := range xs {
			xs[i] = i
		}
		chunks := SplitEven(xs, parts)
		if len(chunks) != parts {
			t.Fatalf("SplitEven(%d, %d) returned %d chunks", n, parts, len(chunks))
		}

		q, r := n/parts, n%parts
		next := 0
		for p, chunk := range chunks {
			wantSize := q
			if p < r {
				wantSize++
			}
			if len(chunk) != wantSize {
				t.Fatalf("chunk %d of SplitEven(%d, %d) has %d elements, want %d", p, n, parts, len(chunk), wantSize)
			}
			lo, hi := BlockRange(n, parts, p)
			if lo != next || hi != next+len(chunk) {
				t.Fatalf("BlockRange(%d, %d, %d) = [%d, %d), but SplitEven puts chunk %d at [%d, %d)",
					n, parts, p, lo, hi, p, next, next+len(chunk))
			}
			for i, v := range chunk {
				if v != next+i {
					t.Fatalf("chunk %d element %d = %d: chunks do not tile the input in order", p, i, v)
				}
			}
			next += len(chunk)
		}
		if next != n {
			t.Fatalf("chunks cover %d of %d elements", next, n)
		}
	})
}

// FuzzBlockRange checks the index-range form on its own: ranges are
// well-formed, contiguous across ranks, cover [0, n) exactly, and are
// balanced to within one element.
func FuzzBlockRange(f *testing.F) {
	f.Add(0, 1)
	f.Add(5, 2)
	f.Add(100, 13)
	f.Add(64, 64)
	f.Fuzz(func(t *testing.T, n, parts int) {
		if n < 0 {
			n = -n
		}
		n %= 1 << 16
		if parts < 1 {
			parts = 1 - parts
		}
		parts = parts%256 + 1

		prevHi := 0
		for p := 0; p < parts; p++ {
			lo, hi := BlockRange(n, parts, p)
			if lo < 0 || lo > hi || hi > n {
				t.Fatalf("BlockRange(%d, %d, %d) = [%d, %d): malformed range", n, parts, p, lo, hi)
			}
			if lo != prevHi {
				t.Fatalf("BlockRange(%d, %d, %d) starts at %d, previous rank ended at %d: gap or overlap", n, parts, p, lo, prevHi)
			}
			if size := hi - lo; size != n/parts && size != n/parts+1 {
				t.Fatalf("BlockRange(%d, %d, %d) has %d elements: unbalanced (want %d or %d)", n, parts, p, size, n/parts, n/parts+1)
			}
			prevHi = hi
		}
		if prevHi != n {
			t.Fatalf("ranges cover [0, %d) of [0, %d)", prevHi, n)
		}
	})
}

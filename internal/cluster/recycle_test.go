package cluster

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"testing"
)

// recycleVec is a Cloner payload: recursive doubling snapshots it through
// CloneWire instead of copying it into a recycled snapshot.
type recycleVec struct{ V []int64 }

func (v recycleVec) CloneWire() any { return recycleVec{V: append([]int64(nil), v.V...)} }

// sumInto adds b into a elementwise and returns a, like SumFloat64s.
func sumInto[E byte | int64 | float64](a, b []E) []E {
	for i := range a {
		a[i] += b[i]
	}
	return a
}

// larger keeps the lexicographically larger operand. It returns its second
// argument whenever that one wins, so its result can be the very snapshot
// the rank just received.
func larger[E cmp.Ordered](a, b []E) []E {
	if slices.Compare(b, a) > 0 {
		return b
	}
	return a
}

// fillVec fills v with small integers that depend on seed, so sums are
// exact in any order and ranks' contributions differ.
func fillVec[E byte | int64 | float64](v []E, seed int) []E {
	for j := range v {
		v[j] = E((seed*7 + j*13) % 101)
	}
	return v
}

// overwrite scribbles over v after a call has returned: a result that
// aliases the argument would change with it.
func overwrite[E byte | int64 | float64](v []E) {
	for j := range v {
		v[j] = 99
	}
}

var recycleLens = []int{0, 1, 3, 256}

// recycleScript runs Allreduce calls on the world comm and on grp in turn,
// and returns every result, which the rank keeps untouched. Call i uses
// payload kind i/4%5 and length recycleLens[i/20%4], so each kind and
// length runs four calls in a row. Calls 1 and 2 of every four use an op
// that can return its second argument, the others one that returns its
// first. After each call the rank overwrites its argument. A result that
// aliases the argument, or a recycled snapshot that is still some kept
// result, therefore shows up as a wrong value.
func recycleScript(world, grp *Comm, calls int) []any {
	out := make([]any, calls)
	for i := range out {
		c := world
		if i%2 == 1 {
			c = grp
		}
		n, seed := recycleLens[i/20%4], c.Rank()*1000+i
		keepLarger := i%4 == 1 || i%4 == 2
		switch i / 4 % 5 {
		case 0:
			v, op := fillVec(make([]float64, n), seed), SumFloat64s
			if keepLarger {
				op = larger[float64]
			}
			out[i] = Allreduce(c, v, op)
			overwrite(v)
		case 1:
			v, op := fillVec(make([]int64, n), seed), SumInt64s
			if keepLarger {
				op = larger[int64]
			}
			out[i] = Allreduce(c, v, op)
			overwrite(v)
		case 2:
			v, op := fillVec(make([]byte, n), seed), sumInto[byte]
			if keepLarger {
				op = larger[byte]
			}
			out[i] = Allreduce(c, v, op)
			overwrite(v)
		case 3:
			op := func(a, b int) int { return a + b }
			if keepLarger {
				op = func(a, b int) int { return max(a, b) }
			}
			out[i] = Allreduce(c, seed%101, op)
		case 4:
			v := recycleVec{V: fillVec(make([]int64, n), seed)}
			op := func(a, b recycleVec) recycleVec { a.V = SumInt64s(a.V, b.V); return a }
			if keepLarger {
				op = func(a, b recycleVec) recycleVec { a.V = larger(a.V, b.V); return a }
			}
			out[i] = Allreduce(c, v, op)
			overwrite(v.V)
		}
	}
	return out
}

// TestAllreduceRecyclingMatchesBaseline is the property test for the
// recycled Allreduce snapshots. Every rank keeps every result while later
// calls change payload kind and length, alternate the world with a Split
// group of the same ranks, and mix an op that returns its first argument
// with one that may return its second. Each kept result must equal the
// baseline algorithm's, which recycles nothing.
func TestAllreduceRecyclingMatchesBaseline(t *testing.T) {
	const calls = 80
	for _, p := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("P%d", p), func(t *testing.T) {
			run := func(opts Options) [][]any {
				got := make([][]any, p)
				err := NewWorldOpts(p, opts).Run(func(c *Comm) {
					grp := c.Split(0, -c.Rank()) // the same ranks, reversed
					got[c.Rank()] = recycleScript(c, grp, calls)
				})
				if err != nil {
					t.Fatalf("opts %+v: %v", opts, err)
				}
				return got
			}
			base := DefaultOptions()
			base.BaselineCollectives = true
			want := run(base)
			got := run(DefaultOptions())
			for r := range got {
				for i := range got[r] {
					if !reflect.DeepEqual(got[r][i], want[r][i]) {
						t.Errorf("rank %d call %d: kept result %v, baseline %v", r, i, got[r][i], want[r][i])
					}
				}
			}
		})
	}
}

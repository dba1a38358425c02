// Tests for the shuffle's key hash and output order: keys equal under ==
// (−0 and +0, alone and inside a struct) meet in one partition at every
// partition count, and the wide stages list their keys in order of first
// appearance, so repeated Collects agree.
package rdd

import (
	"math"
	"slices"
	"testing"
)

type zeroKey struct{ X float64 }

func TestSignedZeroKeysMeet(t *testing.T) {
	nz := math.Copysign(0, -1)
	checkEqualKeysMeet(t, "float64", 0.0, nz)
	checkEqualKeysMeet(t, "struct", zeroKey{0}, zeroKey{nz})
}

// checkEqualKeysMeet runs every wide stage at P = 1..8 over records keyed
// by a and b, which == equates, and requires them to act as one key.
func checkEqualKeysMeet[K comparable](t *testing.T, name string, a, b K) {
	t.Helper()
	add := func(x, y int) int { return x + y }
	for p := 1; p <= 8; p++ {
		ctx := NewContext()
		if n := Count(Distinct(Parallelize(ctx, []K{a, b, a, b}, p))); n != 1 {
			t.Errorf("%s P=%d: Distinct kept %d elements, want 1", name, p, n)
		}
		pairs := []Pair[K, int]{{a, 1}, {b, 1}, {a, 1}, {b, 1}}
		if got := Collect(ReduceByKey(Parallelize(ctx, pairs, p), add)); len(got) != 1 || got[0].Value != 4 {
			t.Errorf("%s P=%d: ReduceByKey = %v, want one pair of 4", name, p, got)
		}
		if got := Collect(GroupByKey(Parallelize(ctx, pairs, p))); len(got) != 1 || len(got[0].Value) != 4 {
			t.Errorf("%s P=%d: GroupByKey = %v, want one group of 4", name, p, got)
		}
		left := Parallelize(ctx, []Pair[K, string]{{a, "left"}}, p)
		right := Parallelize(ctx, []Pair[K, string]{{b, "right"}}, p)
		if got := Collect(Join(left, right)); len(got) != 1 {
			t.Errorf("%s P=%d: Join = %v, want one row", name, p, got)
		}
	}
}

// TestWideStagesKeepFirstAppearanceOrder: 26 keys over 4 partitions come
// out of ReduceByKey and GroupByKey in the same order on every one of 20
// runs, in order of first appearance at P=1, with each group's values in
// record order.
func TestWideStagesKeepFirstAppearanceOrder(t *testing.T) {
	var pairs []Pair[string, int]
	for i := range 260 {
		pairs = append(pairs, Pair[string, int]{string(rune('a' + i*7%26)), i})
	}
	keys := func(ps []Pair[string, int]) []string {
		var out []string
		for _, p := range ps {
			out = append(out, p.Key)
		}
		return out
	}
	var firstReduce, firstGroup []string
	for run := range 20 {
		d := Parallelize(NewContext(), pairs, 4)
		red := keys(Collect(ReduceByKey(d, func(x, y int) int { return x + y })))
		var grp []string
		for _, g := range Collect(GroupByKey(d)) {
			grp = append(grp, g.Key)
			if !slices.IsSorted(g.Value) {
				t.Fatalf("run %d: group %s holds %v, not in record order", run, g.Key, g.Value)
			}
		}
		if run == 0 {
			firstReduce, firstGroup = red, grp
			continue
		}
		if !slices.Equal(red, firstReduce) {
			t.Fatalf("run %d: ReduceByKey order %v, first run %v", run, red, firstReduce)
		}
		if !slices.Equal(grp, firstGroup) {
			t.Fatalf("run %d: GroupByKey order %v, first run %v", run, grp, firstGroup)
		}
	}
	want := keys(pairs[:26])
	d := Parallelize(NewContext(), pairs, 1)
	if got := keys(Collect(ReduceByKey(d, func(x, y int) int { return x + y }))); !slices.Equal(got, want) {
		t.Errorf("P=1: ReduceByKey order %v, want first appearance %v", got, want)
	}
}

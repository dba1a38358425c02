package knn

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dataio"
	"repro/internal/prng"
	"repro/internal/spatial"
)

func testData(seed uint64, n, q, dim, classes int) (*dataio.Dataset, [][]float64, []int) {
	ds := dataio.GaussianMixture(seed, n+q, dim, classes, 2.0)
	db, queries := ds.Split(n)
	return db, queries.Points, queries.Labels
}

func TestVoteMajorityAndTies(t *testing.T) {
	if v := Vote([]Candidate{{1, 2}, {2, 2}, {3, 0}}); v != 2 {
		t.Errorf("majority vote %d", v)
	}
	// Tie between classes 1 and 3 -> smaller label wins.
	if v := Vote([]Candidate{{1, 3}, {2, 1}}); v != 1 {
		t.Errorf("tie vote %d", v)
	}
	if v := Vote(nil); v != -1 {
		t.Errorf("empty vote %d", v)
	}
}

// TestHeapMatchesSort: SequentialSort's sort is not stable, so at ties
// it may keep another neighbour than the heap; this test's continuous
// Gaussian data has no ties.
func TestHeapMatchesSort(t *testing.T) {
	db, queries, _ := testData(1, 400, 60, 5, 3)
	a := SequentialSort(db, queries, 7)
	b := SequentialHeap(db, queries, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("query %d: sort %d heap %d", i, a[i], b[i])
		}
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	db, queries, _ := testData(2, 300, 80, 4, 4)
	want := SequentialHeap(db, queries, 5)
	for _, w := range []int{1, 2, 4, 7} {
		got := Parallel(db, queries, 5, w)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d query %d differs", w, i)
			}
		}
	}
}

func TestKDTreeMatchesSequential(t *testing.T) {
	db, queries, _ := testData(3, 500, 50, 3, 3)
	want := SequentialHeap(db, queries, 5)
	tree := spatial.NewKDTree(db.Points, db.Labels)
	got := KDTree(tree, queries, 5, 4)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("query %d: kdtree %d want %d", i, got[i], want[i])
		}
	}
}

func TestMapReduceMatchesSequential(t *testing.T) {
	db, queries, _ := testData(4, 300, 40, 4, 3)
	want := SequentialHeap(db, queries, 5)
	for _, p := range []int{1, 2, 3, 5} {
		for _, combiner := range []bool{true, false} {
			world := cluster.NewWorld(p)
			got, err := MapReduce(world, db, queries, 5, combiner)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("P=%d combiner=%v query %d: %d want %d",
						p, combiner, i, got[i], want[i])
				}
			}
		}
	}
}

// TestMapReduceRepeatedOnOneWorld: calls on one world, query sets large
// and small, the combiner off and on in turn. Each per-point call appends
// into the shuffle arrays an earlier one returned, and each call must
// classify as SequentialHeap does.
func TestMapReduceRepeatedOnOneWorld(t *testing.T) {
	db, queries, _ := testData(6, 300, 40, 4, 3)
	world := cluster.NewWorld(4)
	for _, nq := range []int{40, 7, 40, 23} {
		want := SequentialHeap(db, queries[:nq], 5)
		for _, combiner := range []bool{false, true} {
			got, err := MapReduce(world, db, queries[:nq], 5, combiner)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%d queries, combiner=%v, query %d: %d want %d", nq, combiner, i, got[i], want[i])
				}
			}
		}
	}
}

// perPointMatchesHeap checks that the per-point MapReduce arm predicts
// what SequentialHeap does at P = 1..5.
func perPointMatchesHeap(t *testing.T, db *dataio.Dataset, queries [][]float64, k int) {
	t.Helper()
	want := SequentialHeap(db, queries, k)
	for p := 1; p <= 5; p++ {
		got, err := MapReduce(cluster.NewWorld(p), db, queries, k, false)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Errorf("P=%d: predicted %v, SequentialHeap %v", p, got, want)
		}
	}
}

// TestMapReducePerPointTiesAtTheBound: when more candidates share a
// distance than the heap has room for, which of them it keeps decides
// the vote. The per-point arm's reducer sees a query's candidates by
// source rank and then in emission order, which is database order, and
// must keep the ones SequentialHeap keeps. From the origin, a far
// class-2 point comes first, then ten points at one distance, the first
// three class 0 and the rest class 1: with k=5 the first five vote 0, and
// each later one ties with the full heap's bound, which enters neither
// heap. The other queries tie on repeated points and on (4, 0) and
// (2, 0).
func TestMapReducePerPointTiesAtTheBound(t *testing.T) {
	db := &dataio.Dataset{Dim: 2, Classes: 3}
	add := func(x, y float64, class int) {
		db.Points = append(db.Points, []float64{x, y})
		db.Labels = append(db.Labels, class)
	}
	add(9, 9, 2)
	for i := 0; i < 10; i++ {
		class := 1
		if i < 3 {
			class = 0
		}
		// (±1, 0) and (0, ±1) are all at squared distance 1 from the
		// origin.
		switch i % 4 {
		case 0:
			add(1, 0, class)
		case 1:
			add(-1, 0, class)
		case 2:
			add(0, 1, class)
		default:
			add(0, -1, class)
		}
	}
	add(4, 0, 1) // at squared distance 1 from (3, 0), as is (2, 0)
	add(2, 0, 0)
	queries := [][]float64{{0, 0}, {3, 0}, {0.5, 0}, {1, 0}}
	if got := SequentialHeap(db, queries[:1], 5); got[0] != 0 {
		t.Fatalf("k=5: SequentialHeap votes %d at the origin, want 0 (the first five tied points)", got[0])
	}
	for _, k := range []int{1, 3, 5, 8} {
		perPointMatchesHeap(t, db, queries, k)
	}
}

// gridData returns n database points and q queries whose coordinates
// are integers in [0, side), with classes drawn at random, so that many
// candidates tie at the k-th distance and which of them a variant keeps
// decides many votes.
func gridData(seed uint64, n, q, dim, side, classes int) (*dataio.Dataset, [][]float64) {
	r := prng.New(seed)
	point := func() []float64 {
		p := make([]float64, dim)
		for i := range p {
			p[i] = float64(r.Intn(side))
		}
		return p
	}
	db := &dataio.Dataset{Dim: dim, Classes: classes}
	for i := 0; i < n; i++ {
		db.Points = append(db.Points, point())
		db.Labels = append(db.Labels, r.Intn(classes))
	}
	queries := make([][]float64, q)
	for i := range queries {
		queries[i] = point()
	}
	return db, queries
}

// TestPerPointAndParallelKeepHeapTies: on tie-heavy grid data the
// per-point MapReduce arm and Parallel keep the tied neighbours
// SequentialHeap keeps. The per-point map computes four points at a time
// and must still emit them in database order; 60 to 63 points give shard
// sizes 0 to 3 mod 4 at every P, so the four-point loop ends with each
// tail length. d = 2 runs SqDist's scalar path, d = 20 its unrolled one.
func TestPerPointAndParallelKeepHeapTies(t *testing.T) {
	for _, grid := range []struct{ dim, side int }{{2, 5}, {20, 2}} {
		for n := 60; n < 64; n++ {
			db, queries := gridData(uint64(100*grid.dim+n), n, 20, grid.dim, grid.side, 3)
			for _, k := range []int{1, 3, 5, 7} {
				t.Run(fmt.Sprintf("d=%d/n=%d/k=%d", grid.dim, n, k), func(t *testing.T) {
					perPointMatchesHeap(t, db, queries, k)
					want := SequentialHeap(db, queries, k)
					for _, w := range []int{1, 2, 4, 7} {
						if got := Parallel(db, queries, k, w); !slices.Equal(got, want) {
							t.Errorf("workers=%d: Parallel %v, SequentialHeap %v", w, got, want)
						}
					}
				})
			}
		}
	}
}

// TestMapReduceTinyDatabases: on an empty database no variant has a
// neighbour to vote with, and SequentialHeap predicts -1, Vote(nil)'s
// answer, for every query; with fewer points than ranks some shards are
// empty. Both MapReduce arms must predict what SequentialHeap does at
// P = 1..5.
func TestMapReduceTinyDatabases(t *testing.T) {
	queries := [][]float64{{0, 0}, {1, 2}, {-3, 1}}
	empty := &dataio.Dataset{Dim: 2, Classes: 2}
	few := &dataio.Dataset{Dim: 2, Classes: 3,
		Points: [][]float64{{0, 1}, {2, 2}, {-3, 0}}, Labels: []int{2, 1, 1}}
	if got := SequentialHeap(empty, queries, 2); !slices.Equal(got, []int{-1, -1, -1}) {
		t.Fatalf("empty database: SequentialHeap predicted %v, want -1 for each query", got)
	}
	for _, db := range []*dataio.Dataset{empty, few} {
		want := SequentialHeap(db, queries, 2)
		for p := 1; p <= 5; p++ {
			for _, combiner := range []bool{false, true} {
				got, err := MapReduce(cluster.NewWorld(p), db, queries, 2, combiner)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, want) {
					t.Errorf("%d points, P=%d, combiner=%v: predicted %v, SequentialHeap %v", db.Len(), p, combiner, got, want)
				}
			}
		}
	}
}

// TestMapReducePerPointSkipsNaNAndInf: database rows holding NaN or ±Inf
// coordinates lie at a NaN or +Inf distance, which no bound admits, so
// SequentialHeap never keeps them, and nor may the per-point arm or
// ClassifyOpts. Every seventh row, the first included, and the last row
// are such rows.
func TestMapReducePerPointSkipsNaNAndInf(t *testing.T) {
	db, queries, _ := testData(8, 300, 30, 4, 3)
	nan, inf := math.NaN(), math.Inf(1)
	bad := [][]float64{
		{nan, nan, nan, nan},
		{inf, 0, 0, 0},
		{0, -inf, 0, 0},
		{0, 0, nan, 1},
		{inf, -inf, 0, 0}, // (q - Inf) and (q + Inf) square to +Inf
	}
	for i := 0; i < len(db.Points); i += 7 {
		db.Points[i] = bad[(i/7)%len(bad)]
	}
	db.Points[len(db.Points)-1] = bad[0]
	perPointMatchesHeap(t, db, queries, 5)
	perPointMatchesHeap(t, db, queries, 1)
	if got, want := ClassifyOpts(db, queries, Options{K: 5}), SequentialHeap(db, queries, 5); !slices.Equal(got, want) {
		t.Errorf("ClassifyOpts predicted %v, SequentialHeap %v", got, want)
	}
}

func TestCombinerCutsShuffleBytes(t *testing.T) {
	db, queries, _ := testData(5, 600, 30, 4, 3)
	run := func(combiner bool) int64 {
		world := cluster.NewWorld(4)
		if _, err := MapReduce(world, db, queries, 5, combiner); err != nil {
			t.Fatal(err)
		}
		return world.TotalBytes()
	}
	on, off := run(true), run(false)
	if on*4 > off {
		t.Errorf("combiner saved too little: on=%d off=%d", on, off)
	}
}

func TestClassificationAccuracyOnSeparableData(t *testing.T) {
	db, queries, labels := testData(6, 1000, 200, 8, 4)
	pred := SequentialHeap(db, queries, 9)
	if acc := Accuracy(pred, labels); acc < 0.97 {
		t.Errorf("accuracy %v on well-separated Gaussians", acc)
	}
}

func TestKLargerThanDatabase(t *testing.T) {
	db := &dataio.Dataset{Dim: 1, Classes: 2,
		Points: [][]float64{{0}, {1}, {2}}, Labels: []int{0, 1, 1}}
	pred := SequentialSort(db, [][]float64{{0.1}}, 10)
	if pred[0] != 1 {
		t.Errorf("k>n vote %d (classes 0:1, 1:2 -> majority 1)", pred[0])
	}
	pred = SequentialHeap(db, [][]float64{{0.1}}, 10)
	if pred[0] != 1 {
		t.Errorf("heap k>n vote %d", pred[0])
	}
}

func TestAccuracyEmpty(t *testing.T) {
	if Accuracy(nil, nil) != 0 {
		t.Error("empty accuracy")
	}
}

func TestK1NearestPointWins(t *testing.T) {
	db := &dataio.Dataset{Dim: 2, Classes: 3,
		Points: [][]float64{{0, 0}, {10, 10}, {20, 20}}, Labels: []int{0, 1, 2}}
	pred := SequentialHeap(db, [][]float64{{9, 9}, {1, 1}, {19, 19}}, 1)
	if pred[0] != 1 || pred[1] != 0 || pred[2] != 2 {
		t.Errorf("k=1 predictions %v", pred)
	}
}

func BenchmarkVariants(b *testing.B) {
	db, queries, _ := testData(7, 2000, 100, 10, 4)
	b.Run("SequentialSort", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			SequentialSort(db, queries, 15)
		}
	})
	b.Run("SequentialHeap", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			SequentialHeap(db, queries, 15)
		}
	})
	b.Run("KDTree", func(b *testing.B) {
		tree := spatial.NewKDTree(db.Points, db.Labels)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			KDTree(tree, queries, 15, 0)
		}
	})
}

func TestMetrics(t *testing.T) {
	a, b := []float64{1, 0}, []float64{0, 1}
	if d := Euclidean.Distance(a, b); d != 2 {
		t.Errorf("euclidean (squared) %v", d)
	}
	if d := Manhattan.Distance(a, b); d != 2 {
		t.Errorf("manhattan %v", d)
	}
	if d := Cosine.Distance(a, b); d != 1 {
		t.Errorf("orthogonal cosine %v", d)
	}
	if d := Cosine.Distance(a, a); d > 1e-12 {
		t.Errorf("self cosine %v", d)
	}
	if d := Cosine.Distance([]float64{0, 0}, a); d != 2 {
		t.Errorf("zero-vector cosine %v", d)
	}
	for m, want := range map[Metric]string{Euclidean: "euclidean", Manhattan: "manhattan", Cosine: "cosine", Metric(9): "unknown"} {
		if m.String() != want {
			t.Errorf("metric name %q", m.String())
		}
	}
}

func TestClassifyOptsEuclideanMatchesHeap(t *testing.T) {
	db, queries, _ := testData(11, 300, 50, 4, 3)
	want := SequentialHeap(db, queries, 5)
	got := ClassifyOpts(db, queries, Options{K: 5})
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("query %d differs", i)
		}
	}
}

func TestClassifyOptsOtherMetricsReasonable(t *testing.T) {
	db, queries, labels := testData(12, 800, 150, 6, 3)
	for _, m := range []Metric{Manhattan, Cosine} {
		pred := ClassifyOpts(db, queries, Options{K: 7, Metric: m})
		if acc := Accuracy(pred, labels); acc < 0.9 {
			t.Errorf("metric %v accuracy %v", m, acc)
		}
	}
}

func TestVoteWeighted(t *testing.T) {
	// One very close class-1 point outweighs two distant class-0 points.
	cands := []Candidate{{0.01, 1}, {10, 0}, {10, 0}}
	if v := VoteWeighted(cands); v != 1 {
		t.Errorf("weighted vote %d", v)
	}
	// Plain majority would pick 0 here.
	if v := Vote(cands); v != 0 {
		t.Errorf("majority vote %d", v)
	}
	// Exact match dominates everything.
	cands = []Candidate{{0, 2}, {0.001, 1}, {0.001, 1}, {0.001, 1}}
	if v := VoteWeighted(cands); v != 2 {
		t.Errorf("exact-match vote %d", v)
	}
}

func TestWeightedVoteAccuracy(t *testing.T) {
	db, queries, labels := testData(13, 800, 150, 5, 4)
	pred := ClassifyOpts(db, queries, Options{K: 9, Weighted: true})
	if acc := Accuracy(pred, labels); acc < 0.95 {
		t.Errorf("weighted accuracy %v", acc)
	}
}

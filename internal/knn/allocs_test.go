package knn

import (
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dataio"
)

// shuffleAllocBudget is the most one knn-shuffle-shaped op may allocate,
// summed over its ranks. Before the shuffle's batches became run-length
// and the per-point arm's values Candidates, the op allocated 2.68 MB;
// before its batches started from the arrays earlier ops returned, 1.41 MB.
const shuffleAllocBudget = 0.5e6

// TestShuffleAllocs holds the per-point MapReduce kNN to its allocation
// budget on the op of the benchmark's knn-shuffle workload: P=4, 2000
// 8-d points, 10 queries, k=15, combiner off, on one world reused from
// op to op. The race detector changes allocation counts, so the test
// skips under it; check.sh runs it in a step of its own.
func TestShuffleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const p, n, k = 4, 20, 15
	db, q := dataio.GaussianMixture(1, 2000+10, 8, 4, 4.0).Split(2000)
	world := cluster.NewWorld(p)
	op := func() {
		if _, err := MapReduce(world, db, q.Points, k, false); err != nil {
			t.Fatal(err)
		}
	}
	op()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		op()
	}
	runtime.ReadMemStats(&after)
	perOp := float64(after.TotalAlloc-before.TotalAlloc) / n
	allocs := (after.Mallocs - before.Mallocs) / n
	if perOp > shuffleAllocBudget {
		t.Errorf("%.0f B in %d allocations per op, budget %.0f B", perOp, allocs, shuffleAllocBudget)
	} else {
		t.Logf("%.0f B in %d allocations per op, budget %.0f B", perOp, allocs, shuffleAllocBudget)
	}
}

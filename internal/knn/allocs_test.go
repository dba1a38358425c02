package knn

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/dataio"
)

// shuffleAllocBudget is the most one knn-shuffle-shaped op may allocate,
// summed over its ranks. Before the shuffle's batches became run-length
// and the per-point arm's values Candidates, the op allocated 2.68 MB;
// before its batches started from the arrays earlier ops returned, 1.41 MB.
const shuffleAllocBudget = 0.5e6

// shuffleOp returns the op of the benchmark's knn-shuffle workload: the
// per-point MapReduce kNN at P=4 over 2000 8-d points, 10 queries, k=15,
// combiner off, on one world reused from op to op.
func shuffleOp(tb testing.TB) func() {
	const p, k = 4, 15
	db, q := dataio.GaussianMixture(1, 2000+10, 8, 4, 4.0).Split(2000)
	world := cluster.NewWorld(p)
	return func() {
		if _, err := MapReduce(world, db, q.Points, k, false); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestShuffleAllocs holds the per-point MapReduce kNN to its allocation
// budget on shuffleOp. The race detector changes allocation counts, so
// the test skips under it; check.sh runs it in a step of its own.
func TestShuffleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const n = 20
	op := shuffleOp(t)
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

// BenchmarkMapReduceShuffle times shuffleOp and reports the median op as
// p50_us. "warm" runs the ops back to back, so each appends into the
// shuffle arrays the op before returned. "cold" collects twice outside
// the timer before each op, which empties the pool of spent batches, so
// every op allocates its shuffle afresh, as the one job of a process
// does: `peachy repro`, `cmd/knn` or a launched rank. Run it at one CPU:
//
//	go test -run '^$' -bench MapReduceShuffle -benchmem -cpu 1 ./internal/knn
func BenchmarkMapReduceShuffle(b *testing.B) {
	for _, cold := range []bool{false, true} {
		name := "warm"
		if cold {
			name = "cold"
		}
		b.Run(name, func(b *testing.B) {
			op := shuffleOp(b)
			op()
			times := make([]time.Duration, b.N)
			b.ResetTimer()
			for i := range times {
				if cold {
					b.StopTimer()
					runtime.GC()
					runtime.GC()
					b.StartTimer()
				}
				start := time.Now()
				op()
				times[i] = time.Since(start)
			}
			b.StopTimer()
			slices.Sort(times)
			b.ReportMetric(float64(times[len(times)/2])/1e3, "p50_us")
		})
	}
}

package mapreduce

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/par"
)

// A job without a combiner starts its batches from arrays that earlier
// jobs of the same (K, V) instantiation returned. These tests check that
// a recycled array carries no pair and keeps no value of the job that
// returned it, and that worlds running at once share the arrays safely.

// TestRecycledBatchesStartEmpty runs, at P = 1..5, a large job, a smaller
// one of the same instantiation with other keys and values, and the large
// one again. Each must reduce as its serial model does: a pair left in a
// recycled array would reach the next job's Reduce.
func TestRecycledBatchesStartEmpty(t *testing.T) {
	largeKeys := func(in int) []int { return []int{in % 7, in * in % 7} }
	smallKeys := func(in int) []int { return []int{100 + in%3, 100 + in%3, 200 + in%2} }
	steps := []struct {
		name string
		n    int
		keys func(in int) []int
	}{{"large", 400, largeKeys}, {"small", 40, smallKeys}, {"large again", 400, largeKeys}}
	for p := 1; p <= 5; p++ {
		for _, step := range steps {
			shards := spreadInputs(step.n, p)
			got := resultLines(resultsInProcess(t, boundaryJob(step.keys, false), shards))
			if want := boundaryModel(shards, step.keys, false); !slices.Equal(got, want) {
				t.Errorf("P=%d %s job reduced\n%v\nwant\n%v", p, step.name, got, want)
			}
		}
	}
}

// tracked is a value whose collection a test watches. It is 16 bytes:
// smaller pointer-free objects share tiny blocks, whose finalizers may
// never run.
type tracked struct{ id, weight int }

// TestRecycledBatchesRetainNothing runs jobs whose values point to
// tracked objects: one at P=4, one of the same shape that appends into the
// arrays the first returned, and one at P=1 that outgrows the array it
// takes while the rest stay pooled. After one collection every tracked
// object must be finalized. A pooled array that still held values would
// keep them alive through that collection, which moves the pool to its
// victim cache without freeing it; a second collection would free them
// and hide the leak, so the test collects once and then waits for the
// finalizers.
func TestRecycledBatchesRetainNothing(t *testing.T) {
	var finalized atomic.Int64
	job := &Job[int, int, *tracked, int]{
		Map: func(in int, emit func(int, *tracked)) {
			v := &tracked{id: in, weight: 1}
			runtime.SetFinalizer(v, func(*tracked) { finalized.Add(1) })
			emit(in%7, v)
		},
		Reduce: func(_ int, vs []*tracked) int {
			sum := 0
			for _, v := range vs {
				sum += v.weight
			}
			return sum
		},
	}
	var want int64
	for _, run := range []struct{ p, n int }{{4, 400}, {4, 400}, {1, 1000}} {
		shards := spreadInputs(run.n, run.p)
		counts := make([]map[int]int, run.p)
		if err := cluster.NewWorld(run.p).Run(func(c *cluster.Comm) {
			counts[c.Rank()] = job.Run(c, shards[c.Rank()])
		}); err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, m := range counts {
			for _, c := range m {
				total += c
			}
		}
		if total != run.n {
			t.Fatalf("P=%d: reduced %d values, want %d", run.p, total, run.n)
		}
		want += int64(run.n)
	}
	runtime.GC()
	for deadline := time.Now().Add(5 * time.Second); finalized.Load() < want && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if got := finalized.Load(); got != want {
		t.Errorf("%d of %d values finalized after one collection: spent batches keep the rest reachable", got, want)
	}
}

// TestRecycledBatchesAcrossConcurrentWorlds runs the order job over and
// over on two in-process worlds at once, so their ranks take and return
// arrays of the one instantiation concurrently. Every run must reduce as
// the serial model does; under the race detector, a batch returned while
// another rank still read it would be reported.
func TestRecycledBatchesAcrossConcurrentWorlds(t *testing.T) {
	const runs = 20
	worlds := [][][]int{spreadInputs(200, 3), spreadInputs(120, 4)}
	errs := make([]error, len(worlds))
	runWorld := func(i int) func() {
		return func() {
			shards := worlds[i]
			want := orderModel(shards, false)
			w := cluster.NewWorld(len(shards))
			results := make([]map[int][]int, len(shards))
			for run := 0; run < runs; run++ {
				if err := w.Run(func(c *cluster.Comm) {
					results[c.Rank()] = orderJob(false).Run(c, shards[c.Rank()])
				}); err != nil {
					errs[i] = err
					return
				}
				if got := merged(results); !reflect.DeepEqual(got, want) {
					errs[i] = fmt.Errorf("world %d run %d reduced\n%v\nwant\n%v", i, run, got, want)
					return
				}
			}
		}
	}
	par.Do(runWorld(0), runWorld(1))
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

package mapreduce

import (
	"fmt"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
)

// The shuffle's contract: each key's values reach Combine and Reduce by
// source rank, then in emission order, whatever order the pairs travel
// in. These tests pin it in-process and across the net device's codec.

const orderKeys = 7

// orderJob records the order in which values arrive. Every value is a
// sequence of ints, and Combine and Reduce return the concatenation of
// the sequences they saw; Combine puts a -1 in front of its output, so a
// result also shows which keys were combined.
func orderJob(combine bool) *Job[int, int, []int, []int] {
	j := &Job[int, int, []int, []int]{
		Map: func(in int, emit func(int, []int)) {
			emit(in%orderKeys, []int{in})
			emit(in*in%orderKeys, []int{1000 + in})
		},
		Reduce: func(_ int, vs [][]int) []int { return slices.Concat(vs...) },
	}
	if combine {
		j.Combine = func(_ int, vs [][]int) []int {
			return append([]int{-1}, slices.Concat(vs...)...)
		}
	}
	return j
}

// orderModel is the serial model of orderJob on the given shards: for
// each source rank in turn, each key's values in emission order, with a
// combiner folding the values of any key that rank emitted more than once.
func orderModel(shards [][]int, combine bool) map[int][]int {
	job := orderJob(combine)
	want := map[int][]int{}
	for _, shard := range shards {
		local := map[int][][]int{}
		var order []int
		for _, in := range shard {
			job.Map(in, func(k int, v []int) {
				if _, seen := local[k]; !seen {
					order = append(order, k)
				}
				local[k] = append(local[k], v)
			})
		}
		for _, k := range order {
			vs := local[k]
			if combine && len(vs) > 1 {
				vs = [][]int{job.Combine(k, vs)}
			}
			for _, v := range vs {
				want[k] = append(want[k], v...)
			}
		}
	}
	return want
}

func orderInputs(p int) [][]int {
	inputs := make([]int, 40)
	for i := range inputs {
		inputs[i] = i
	}
	return cluster.SplitEven(inputs, p)
}

// shuffleRun is what one in-process run of a job shows: each rank's
// results and simulated clock, and the world's message and byte counts.
type shuffleRun struct {
	results []map[int][]int
	clocks  []float64
	msgs    int64
	bytes   int64
}

func runInProcess(t *testing.T, job *Job[int, int, []int, []int], shards [][]int) shuffleRun {
	t.Helper()
	p := len(shards)
	run := shuffleRun{results: make([]map[int][]int, p), clocks: make([]float64, p)}
	w := cluster.NewWorld(p)
	if err := w.Run(func(c *cluster.Comm) {
		run.results[c.Rank()] = job.Run(c, shards[c.Rank()])
		run.clocks[c.Rank()] = c.Clock()
	}); err != nil {
		t.Fatal(err)
	}
	run.msgs, run.bytes = w.TotalMessages(), w.TotalBytes()
	return run
}

func merged(results []map[int][]int) map[int][]int {
	all := map[int][]int{}
	for _, m := range results {
		for k, v := range m {
			all[k] = v
		}
	}
	return all
}

func TestShuffleKeepsValueOrder(t *testing.T) {
	for p := 1; p <= 5; p++ {
		for _, combine := range []bool{false, true} {
			shards := orderInputs(p)
			got := merged(runInProcess(t, orderJob(combine), shards).results)
			if want := orderModel(shards, combine); !reflect.DeepEqual(got, want) {
				t.Errorf("P=%d combiner=%v: values arrived as\n%v\nwant\n%v", p, combine, got, want)
			}
		}
	}
}

func TestReduceAppendLeavesOtherKeysAlone(t *testing.T) {
	for p := 1; p <= 4; p++ {
		for _, combine := range []bool{false, true} {
			job := orderJob(combine)
			reduce := job.Reduce
			job.Reduce = func(k int, vs [][]int) []int {
				out := reduce(k, vs)
				// With groups that share one array uncapped, these
				// appends land on the next key's values.
				for i := 0; i < 3; i++ {
					vs = append(vs, []int{-2})
				}
				return out
			}
			shards := orderInputs(p)
			got := merged(runInProcess(t, job, shards).results)
			if want := orderModel(shards, combine); !reflect.DeepEqual(got, want) {
				t.Errorf("P=%d combiner=%v: an append in Reduce changed other keys' values:\n%v\nwant\n%v",
					p, combine, got, want)
			}
		}
	}
}

// TestShuffleOnNetWorld runs the order job on a 4-rank unix-socket net
// world, one goroutine per rank as separate processes would run it, where
// every batch crosses the wire codec. Results, simulated clocks and
// traffic must equal the in-process run's.
func TestShuffleOnNetWorld(t *testing.T) {
	const p = 4
	for _, combine := range []bool{false, true} {
		shards := orderInputs(p)
		want := runInProcess(t, orderJob(combine), shards)

		dir := t.TempDir()
		addrs := make([]string, p)
		for r := range addrs {
			addrs[r] = filepath.Join(dir, fmt.Sprintf("%d.s", r))
		}
		got := shuffleRun{results: make([]map[int][]int, p), clocks: make([]float64, p)}
		errs := make([]error, p)
		worlds := make([]*cluster.World, p)
		var wg sync.WaitGroup
		wg.Add(p)
		for r := 0; r < p; r++ {
			go func(r int) { //peachyvet:allow rawgo — one goroutine per rank stands in for one process per rank
				defer wg.Done()
				w, err := cluster.NewNetWorld(cluster.NetConfig{
					Size: p, Rank: r, Network: "unix", Addrs: addrs,
					DialTimeout: 10 * time.Second,
				}, cluster.DefaultOptions())
				if err != nil {
					errs[r] = err
					return
				}
				defer w.Close()
				worlds[r] = w
				errs[r] = w.Run(func(c *cluster.Comm) {
					got.results[r] = orderJob(combine).Run(c, shards[r])
					got.clocks[r] = c.Clock()
				})
			}(r)
		}
		wg.Wait()
		for r, err := range errs {
			if err != nil {
				t.Fatalf("combiner=%v rank %d: %v", combine, r, err)
			}
			got.msgs += worlds[r].TotalMessages()
			got.bytes += worlds[r].TotalBytes()
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("combiner=%v: net world differs from in-process:\n got %+v\nwant %+v", combine, got, want)
		}
	}
}

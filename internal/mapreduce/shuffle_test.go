package mapreduce

import (
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/keyhash"
	"repro/internal/prng"
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

func orderInputs(p int) [][]int { return spreadInputs(40, p) }

// spreadInputs splits the inputs 0..n-1 over p ranks.
func spreadInputs(n, p int) [][]int {
	inputs := make([]int, n)
	for i := range inputs {
		inputs[i] = i
	}
	return cluster.SplitEven(inputs, p)
}

// shuffleRun is what running a job some times in a row on one world
// shows: each run's results and simulated clocks, entry run*P+rank, and
// the world's message and byte counts after the last run.
type shuffleRun struct {
	results []map[int][]int
	clocks  []float64
	msgs    int64
	bytes   int64
}

func runInProcess(t *testing.T, job *Job[int, int, []int, []int], shards [][]int) shuffleRun {
	t.Helper()
	return runsInProcess(t, job, shards, 1)
}

func runsInProcess(t *testing.T, job *Job[int, int, []int, []int], shards [][]int, runs int) shuffleRun {
	t.Helper()
	p := len(shards)
	run := shuffleRun{results: make([]map[int][]int, runs*p), clocks: make([]float64, runs*p)}
	w := cluster.NewWorld(p)
	if err := w.Run(func(c *cluster.Comm) {
		for i := 0; i < runs; i++ {
			run.results[i*p+c.Rank()] = job.Run(c, shards[c.Rank()])
			run.clocks[i*p+c.Rank()] = c.Clock()
		}
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

// TestShuffleOnNetWorld runs the order job three times on a 4-rank
// unix-socket net world, one goroutine per rank as separate processes
// would run it, where every batch crosses the wire codec and the second
// and third runs append into decoded batches the runs before returned.
// Results, simulated clocks and traffic must equal three runs on one
// in-process world.
func TestShuffleOnNetWorld(t *testing.T) {
	const p, runs = 4, 3
	for _, combine := range []bool{false, true} {
		shards := orderInputs(p)
		want := runsInProcess(t, orderJob(combine), shards, runs)

		dir := t.TempDir()
		addrs := make([]string, p)
		for r := range addrs {
			addrs[r] = filepath.Join(dir, fmt.Sprintf("%d.s", r))
		}
		got := shuffleRun{results: make([]map[int][]int, runs*p), clocks: make([]float64, runs*p)}
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
					for i := 0; i < runs; i++ {
						got.results[i*p+r] = orderJob(combine).Run(c, shards[r])
						got.clocks[i*p+r] = c.Clock()
					}
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

// The run-boundary cases: emission patterns that open, extend and reopen
// runs of equal keys in a destination's batch, each checked against a
// serial model at P = 1..5 with the combiner on and off.

// boundaryJob is orderJob over any key type: input in emits keys(in) in
// order, the j-th with the value {100*in + j}.
func boundaryJob[K comparable](keys func(in int) []K, combine bool) *Job[int, K, []int, []int] {
	j := &Job[int, K, []int, []int]{
		Map: func(in int, emit func(K, []int)) {
			for i, k := range keys(in) {
				emit(k, []int{100*in + i})
			}
		},
		Reduce: func(_ K, vs [][]int) []int { return slices.Concat(vs...) },
	}
	if combine {
		j.Combine = func(_ K, vs [][]int) []int {
			return append([]int{-1}, slices.Concat(vs...)...)
		}
	}
	return j
}

type keyValues[K comparable] struct {
	key  K
	vals [][]int
}

// addValue appends v to key k's values, comparing keys with ==, so that
// every NaN opens a key of its own.
func addValue[K comparable](groups []keyValues[K], k K, v []int) []keyValues[K] {
	for i := range groups {
		if groups[i].key == k {
			groups[i].vals = append(groups[i].vals, v)
			return groups
		}
	}
	return append(groups, keyValues[K]{k, [][]int{v}})
}

// boundaryModel is the serial model of boundaryJob on the given shards,
// as orderModel is of orderJob. It returns one "key: values" line per
// reduced key, sorted.
func boundaryModel[K comparable](shards [][]int, keys func(in int) []K, combine bool) []string {
	job := boundaryJob(keys, combine)
	var all []keyValues[K]
	for _, shard := range shards {
		var local []keyValues[K]
		for _, in := range shard {
			job.Map(in, func(k K, v []int) { local = addValue(local, k, v) })
		}
		for _, g := range local {
			vs := g.vals
			if combine && len(vs) > 1 {
				vs = [][]int{job.Combine(g.key, vs)}
			}
			for _, v := range vs {
				all = addValue(all, g.key, v)
			}
		}
	}
	var lines []string
	for _, g := range all {
		lines = append(lines, fmt.Sprint(g.key, ": ", slices.Concat(g.vals...)))
	}
	slices.Sort(lines)
	return lines
}

// resultLines lists every rank's reduced keys as boundaryModel does. A key
// reduced on two ranks shows as two lines, each with part of its values.
func resultLines[K comparable](results []map[K][]int) []string {
	var lines []string
	for _, m := range results {
		for k, v := range m {
			lines = append(lines, fmt.Sprint(k, ": ", v))
		}
	}
	slices.Sort(lines)
	return lines
}

func resultsInProcess[K comparable](t *testing.T, job *Job[int, K, []int, []int], shards [][]int) []map[K][]int {
	t.Helper()
	results := make([]map[K][]int, len(shards))
	if err := cluster.NewWorld(len(shards)).Run(func(c *cluster.Comm) {
		results[c.Rank()] = job.Run(c, shards[c.Rank()])
	}); err != nil {
		t.Fatal(err)
	}
	return results
}

// resultsOnNetWorld runs job on a unix-socket net world, one goroutine per
// rank, as TestShuffleOnNetWorld does.
func resultsOnNetWorld[K comparable](t *testing.T, job *Job[int, K, []int, []int], shards [][]int) []map[K][]int {
	t.Helper()
	p := len(shards)
	dir := t.TempDir()
	addrs := make([]string, p)
	for r := range addrs {
		addrs[r] = filepath.Join(dir, fmt.Sprintf("%d.s", r))
	}
	results := make([]map[K][]int, p)
	errs := make([]error, p)
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
			errs[r] = w.Run(func(c *cluster.Comm) { results[c.Rank()] = job.Run(c, shards[c.Rank()]) })
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return results
}

type boundaryCase struct {
	name  string
	check func(t *testing.T, p int, combine, net bool)
}

// newBoundaryCase checks keys(p, in) on shards(p) against boundaryModel.
func newBoundaryCase[K comparable](name string, shards func(p int) [][]int, keys func(p, in int) []K) boundaryCase {
	return boundaryCase{name, func(t *testing.T, p int, combine, net bool) {
		sh := shards(p)
		keysAt := func(in int) []K { return keys(p, in) }
		results := resultsInProcess[K]
		if net {
			results = resultsOnNetWorld[K]
		}
		got := resultLines(results(t, boundaryJob(keysAt, combine), sh))
		if want := boundaryModel(sh, keysAt, combine); !slices.Equal(got, want) {
			t.Errorf("reduced\n%v\nwant\n%v", got, want)
		}
	}}
}

// sameDest returns the smallest key above a that hashes to a's rank at P=p;
// otherDest the smallest key that does not (a+1 at P=1, where every key
// shares the one rank).
func sameDest(p, a int) int {
	b := a + 1
	for keyhash.Of(b)%uint64(p) != keyhash.Of(a)%uint64(p) {
		b++
	}
	return b
}

func otherDest(p, a int) int {
	b := a + 1
	for p > 1 && keyhash.Of(b)%uint64(p) == keyhash.Of(a)%uint64(p) {
		b++
	}
	return b
}

var boundaryCases = []boundaryCase{
	// Two keys of one destination in turn: every run holds one value.
	newBoundaryCase("alternating", orderInputs, func(p, in int) []int {
		a, b := 0, sameDest(p, 0)
		return []int{a, b, a, b, a, b}
	}),
	// Key a reopens after b in its batch, and its emissions on either side
	// of c, which goes elsewhere, extend one run.
	newBoundaryCase("reopen", orderInputs, func(p, in int) []int {
		a, b, c := 0, sameDest(p, 0), otherDest(p, 0)
		return []int{a, c, a, b, b, c, a}
	}),
	newBoundaryCase("one key", orderInputs, func(p, in int) []int {
		return []int{7, 7, 7}
	}),
	// Every odd rank maps nothing and sends empty batches.
	newBoundaryCase("empty shards", func(p int) [][]int {
		shards := orderInputs(p)
		for r := 1; r < p; r += 2 {
			shards[r] = nil
		}
		return shards
	}, func(p, in int) []int {
		return []int{in % 3, in % 3, (in + 1) % 3}
	}),
	// NaN equals no key, itself included, so each NaN emission is a key
	// of its own even when NaNs are emitted back to back.
	newBoundaryCase("NaN", orderInputs, func(p, in int) []float64 {
		nan := math.NaN()
		return []float64{nan, nan, 1.5, nan, 1.5, float64(in % 2)}
	}),
	// All of the above at random: runs of one to three equal keys, seeded
	// by the input, from six keys that spread over the ranks, with NaN and
	// with −0 beside +0, which == equates, so their values join one key.
	newBoundaryCase("random", orderInputs, func(p, in int) []float64 {
		alphabet := []float64{0, math.Copysign(0, -1), 1.5, 2, 3, 4, math.NaN()}
		rng := prng.New(uint64(in))
		var keys []float64
		for len(keys) < 24 {
			k := alphabet[rng.Intn(len(alphabet))]
			for n := 1 + rng.Intn(3); n > 0; n-- {
				keys = append(keys, k)
			}
		}
		return keys
	}),
}

func TestShuffleRunBoundaries(t *testing.T) {
	for _, tc := range boundaryCases {
		for p := 1; p <= 5; p++ {
			for _, combine := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/P%d/combiner=%v", tc.name, p, combine), func(t *testing.T) {
					tc.check(t, p, combine, false)
				})
			}
		}
	}
	for _, combine := range []bool{false, true} {
		t.Run(fmt.Sprintf("reopen/net/P4/combiner=%v", combine), func(t *testing.T) {
			boundaryCases[1].check(t, 4, combine, true)
		})
	}
}

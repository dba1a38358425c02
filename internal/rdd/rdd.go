// Package rdd is a lazy, partitioned, Spark-like dataset engine: the
// substrate for the data-science-pipeline assignment (paper §4). Datasets
// carry their lineage as closures; transformations are lazy and actions
// evaluate partitions in parallel. Wide transformations (ReduceByKey,
// GroupByKey, Join, Distinct, SortBy) introduce a hash shuffle, exactly
// the stage boundary Spark teaches.
//
// Because Go methods cannot introduce new type parameters, transformations
// that change the element type are package-level generic functions:
//
//	lines := rdd.TextFile(ctx, "data.csv", 8)
//	rows  := rdd.Map(lines, parseRow)
//	byKey := rdd.KeyBy(rows, func(r Row) string { return r.NTA })
//	agg   := rdd.ReduceByKey(byKey, func(a, b int) int { return a + b })
//	out   := rdd.Collect(agg)
package rdd

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"

	"repro/internal/keyhash"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/prng"
)

// Context owns execution resources and counters for a family of datasets.
type Context struct {
	// Parallelism is the number of workers evaluating partitions
	// concurrently; <= 0 means GOMAXPROCS.
	Parallelism int

	mu       sync.Mutex
	shuffles int64
	shufRecs int64
	tasks    int64

	// rec, when attached, records one stage span per action with the
	// tasks/shuffles/records the action materialized. Recording happens on
	// the goroutine that calls the action, so while a recorder is attached
	// actions must not run concurrently (the pipelines here are
	// sequential drivers).
	rec *obs.Recorder
}

// SetRecorder attaches an observability recorder to the context (nil
// detaches). See the rec field for the concurrency contract.
func (c *Context) SetRecorder(r *obs.Recorder) { c.rec = r }

// Recorder returns the attached recorder (nil when observability is off).
func (c *Context) Recorder() *obs.Recorder { return c.rec }

// beginStage snapshots the engine counters and returns a closure that
// records the action's stage span with the deltas: partition tasks run,
// shuffles crossed, records shuffled, and records the action returned.
func (c *Context) beginStage(op string) func(records int64) {
	if c.rec == nil {
		return func(int64) {}
	}
	wall := c.rec.Now()
	c.mu.Lock()
	shuf0, recs0, tasks0 := c.shuffles, c.shufRecs, c.tasks
	c.mu.Unlock()
	return func(records int64) {
		c.mu.Lock()
		dShuf, dRecs, dTasks := c.shuffles-shuf0, c.shufRecs-recs0, c.tasks-tasks0
		c.mu.Unlock()
		c.rec.WallSpan(op, wall,
			obs.KV{K: "tasks", V: dTasks},
			obs.KV{K: "shuffles", V: dShuf},
			obs.KV{K: "shuffled_records", V: dRecs},
			obs.KV{K: "records", V: records})
	}
}

// NewContext returns a Context with default parallelism.
func NewContext() *Context { return &Context{} }

// ShuffleCount reports how many wide stages have executed.
func (c *Context) ShuffleCount() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.shuffles
}

// ShuffledRecords reports how many records crossed shuffle boundaries.
func (c *Context) ShuffledRecords() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.shufRecs
}

// TaskCount reports how many partition-evaluation tasks ran.
func (c *Context) TaskCount() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tasks
}

func (c *Context) noteShuffle(records int64) {
	c.mu.Lock()
	c.shuffles++
	c.shufRecs += records
	c.mu.Unlock()
}

func (c *Context) noteTasks(n int64) {
	c.mu.Lock()
	c.tasks += n
	c.mu.Unlock()
}

// Dataset is a lazy, partitioned collection of T.
type Dataset[T any] struct {
	ctx     *Context
	nParts  int
	compute func(part int) []T

	cacheMu sync.Mutex
	cached  [][]T
}

// Ctx returns the owning context.
func (d *Dataset[T]) Ctx() *Context { return d.ctx }

// NumPartitions returns the partition count.
func (d *Dataset[T]) NumPartitions() int { return d.nParts }

// Cache memoizes computed partitions so downstream actions reuse them.
// It returns d for chaining.
func (d *Dataset[T]) Cache() *Dataset[T] {
	d.cacheMu.Lock()
	if d.cached == nil {
		d.cached = make([][]T, d.nParts)
		inner := d.compute
		done := make([]bool, d.nParts)
		var mu sync.Mutex
		d.compute = func(p int) []T {
			mu.Lock()
			if done[p] {
				v := d.cached[p]
				mu.Unlock()
				return v
			}
			mu.Unlock()
			v := inner(p)
			mu.Lock()
			d.cached[p] = v
			done[p] = true
			mu.Unlock()
			return v
		}
	}
	d.cacheMu.Unlock()
	return d
}

// newDataset wires a derived dataset.
func newDataset[T any](ctx *Context, nParts int, compute func(int) []T) *Dataset[T] {
	if nParts < 1 {
		nParts = 1
	}
	return &Dataset[T]{ctx: ctx, nParts: nParts, compute: compute}
}

// Parallelize distributes data over nParts partitions.
func Parallelize[T any](ctx *Context, data []T, nParts int) *Dataset[T] {
	if nParts < 1 {
		nParts = 1
	}
	parts := make([][]T, nParts)
	n := len(data)
	for p := 0; p < nParts; p++ {
		lo := p * n / nParts
		hi := (p + 1) * n / nParts
		parts[p] = data[lo:hi]
	}
	return newDataset(ctx, nParts, func(p int) []T { return parts[p] })
}

// TextFile reads path eagerly and exposes its lines as a dataset of
// nParts partitions (a line-sharded stand-in for HDFS splits).
func TextFile(ctx *Context, path string, nParts int) (*Dataset[string], error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return Parallelize(ctx, lines, nParts), nil
}

// collectParts evaluates all partitions in parallel.
func collectParts[T any](d *Dataset[T]) [][]T {
	out := make([][]T, d.nParts)
	d.ctx.noteTasks(int64(d.nParts))
	par.For(d.nParts, d.ctx.Parallelism, func(p int) {
		out[p] = d.compute(p)
	})
	return out
}

// ---------- Narrow transformations ----------

// Map applies f to every element.
func Map[T, U any](d *Dataset[T], f func(T) U) *Dataset[U] {
	return newDataset(d.ctx, d.nParts, func(p int) []U {
		in := d.compute(p)
		out := make([]U, len(in))
		for i, v := range in {
			out[i] = f(v)
		}
		return out
	})
}

// Filter keeps elements satisfying pred.
func Filter[T any](d *Dataset[T], pred func(T) bool) *Dataset[T] {
	return newDataset(d.ctx, d.nParts, func(p int) []T {
		in := d.compute(p)
		var out []T
		for _, v := range in {
			if pred(v) {
				out = append(out, v)
			}
		}
		return out
	})
}

// FlatMap applies f and concatenates the results.
func FlatMap[T, U any](d *Dataset[T], f func(T) []U) *Dataset[U] {
	return newDataset(d.ctx, d.nParts, func(p int) []U {
		in := d.compute(p)
		var out []U
		for _, v := range in {
			out = append(out, f(v)...)
		}
		return out
	})
}

// MapPartitions applies f to whole partitions.
func MapPartitions[T, U any](d *Dataset[T], f func(part int, in []T) []U) *Dataset[U] {
	return newDataset(d.ctx, d.nParts, func(p int) []U {
		return f(p, d.compute(p))
	})
}

// Union concatenates two datasets (their partitions are appended).
func Union[T any](a, b *Dataset[T]) *Dataset[T] {
	return newDataset(a.ctx, a.nParts+b.nParts, func(p int) []T {
		if p < a.nParts {
			return a.compute(p)
		}
		return b.compute(p - a.nParts)
	})
}

// Sample keeps each element independently with probability frac, seeded
// deterministically per partition.
func Sample[T any](d *Dataset[T], frac float64, seed uint64) *Dataset[T] {
	return newDataset(d.ctx, d.nParts, func(p int) []T {
		r := prng.New(seed + uint64(p)*0x9e37)
		in := d.compute(p)
		var out []T
		for _, v := range in {
			if r.Bernoulli(frac) {
				out = append(out, v)
			}
		}
		return out
	})
}

// ---------- Wide transformations (shuffle) ----------

// shuffleByKey evaluates parent partitions and redistributes pairs into
// nOut hash partitions, by the key hash MapReduce's exchange uses, so
// keys equal under == land in one partition. Each partition keeps the
// pairs in parent-partition order.
func shuffleByKey[K comparable, V any](d *Dataset[Pair[K, V]], nOut int) [][]Pair[K, V] {
	parts := collectParts(d)
	out := make([][]Pair[K, V], nOut)
	var records int64
	for _, part := range parts {
		records += int64(len(part))
		for _, kv := range part {
			h := keyhash.Of(kv.Key) % uint64(nOut)
			out[h] = append(out[h], kv)
		}
	}
	d.ctx.noteShuffle(records)
	return out
}

// shuffleFold shuffles d by key, once, when a partition is first asked
// for, and turns each output partition into fold's pairs.
func shuffleFold[K comparable, V, W any](d *Dataset[Pair[K, V]], fold func([]Pair[K, V]) []Pair[K, W]) *Dataset[Pair[K, W]] {
	nOut := d.nParts
	var once sync.Once
	var out [][]Pair[K, W]
	return newDataset(d.ctx, nOut, func(p int) []Pair[K, W] {
		once.Do(func() {
			buckets := shuffleByKey(d, nOut)
			out = make([][]Pair[K, W], nOut)
			for i, b := range buckets {
				out[i] = fold(b)
			}
		})
		return out[p]
	})
}

// foldByKey returns one pair per key of in, keys in order of first
// appearance: a key's first value becomes start(v), and each later one
// is folded in by add, in record order.
func foldByKey[K comparable, V, W any](in []Pair[K, V], start func(V) W, add func(W, V) W) []Pair[K, W] {
	at := make(map[K]int, len(in))
	var out []Pair[K, W]
	for _, kv := range in {
		if i, ok := at[kv.Key]; ok {
			out[i].Value = add(out[i].Value, kv.Value)
		} else {
			at[kv.Key] = len(out)
			out = append(out, Pair[K, W]{kv.Key, start(kv.Value)})
		}
	}
	return out
}

// Pair is a keyed record.
type Pair[K comparable, V any] struct {
	Key   K
	Value V
}

// KeyBy converts a dataset into pairs using a key extractor.
func KeyBy[K comparable, T any](d *Dataset[T], key func(T) K) *Dataset[Pair[K, T]] {
	return Map(d, func(v T) Pair[K, T] { return Pair[K, T]{key(v), v} })
}

// MapValues transforms pair values, preserving keys and partitioning.
func MapValues[K comparable, V, W any](d *Dataset[Pair[K, V]], f func(V) W) *Dataset[Pair[K, W]] {
	return Map(d, func(p Pair[K, V]) Pair[K, W] { return Pair[K, W]{p.Key, f(p.Value)} })
}

// ReduceByKey merges all values of each key with op (associative,
// commutative). It shuffles once; per-partition pre-aggregation (a
// map-side combine) runs before the exchange, as in Spark. Each output
// partition lists its keys in order of first appearance, so Collect
// returns the same order on every run.
func ReduceByKey[K comparable, V any](d *Dataset[Pair[K, V]], op func(V, V) V) *Dataset[Pair[K, V]] {
	reduce := func(in []Pair[K, V]) []Pair[K, V] {
		return foldByKey(in, func(v V) V { return v }, op)
	}
	combined := MapPartitions(d, func(_ int, in []Pair[K, V]) []Pair[K, V] { return reduce(in) })
	return shuffleFold(combined, reduce)
}

// GroupByKey gathers all values of each key into a slice, in record
// order, keys in order of first appearance.
func GroupByKey[K comparable, V any](d *Dataset[Pair[K, V]]) *Dataset[Pair[K, []V]] {
	return shuffleFold(d, func(in []Pair[K, V]) []Pair[K, []V] {
		return foldByKey(in, func(v V) []V { return []V{v} }, func(vs []V, v V) []V { return append(vs, v) })
	})
}

// JoinRow is one matched pair from an inner join.
type JoinRow[A, B any] struct {
	Left  A
	Right B
}

// Join computes the inner equi-join of two pair datasets: for every key
// present in both, the cross product of its left and right values.
func Join[K comparable, A, B any](left *Dataset[Pair[K, A]], right *Dataset[Pair[K, B]]) *Dataset[Pair[K, JoinRow[A, B]]] {
	nOut := left.nParts
	var once sync.Once
	var out [][]Pair[K, JoinRow[A, B]]
	materialize := func() {
		lb := shuffleByKey(left, nOut)
		rb := shuffleByKey(right, nOut)
		out = make([][]Pair[K, JoinRow[A, B]], nOut)
		for p := 0; p < nOut; p++ {
			lm := make(map[K][]A)
			for _, kv := range lb[p] {
				lm[kv.Key] = append(lm[kv.Key], kv.Value)
			}
			for _, kv := range rb[p] {
				as, ok := lm[kv.Key]
				if !ok {
					continue
				}
				for _, a := range as {
					out[p] = append(out[p], Pair[K, JoinRow[A, B]]{kv.Key, JoinRow[A, B]{a, kv.Value}})
				}
			}
		}
	}
	return newDataset(left.ctx, nOut, func(p int) []Pair[K, JoinRow[A, B]] {
		once.Do(materialize)
		return out[p]
	})
}

// Distinct removes duplicates (a shuffle by the element itself); each
// partition keeps its elements in order of first appearance.
func Distinct[T comparable](d *Dataset[T]) *Dataset[T] {
	keyed := Map(d, func(v T) Pair[T, struct{}] { return Pair[T, struct{}]{v, struct{}{}} })
	reduced := ReduceByKey(keyed, func(a, _ struct{}) struct{} { return a })
	return Map(reduced, func(p Pair[T, struct{}]) T { return p.Key })
}

// SortBy globally sorts the dataset by the given less function into a
// single partition (adequate for result-sized data; a range-partitioned
// sort is overkill for the pipelines here).
func SortBy[T any](d *Dataset[T], less func(a, b T) bool) *Dataset[T] {
	var once sync.Once
	var sorted []T
	return newDataset(d.ctx, 1, func(int) []T {
		once.Do(func() {
			parts := collectParts(d)
			for _, p := range parts {
				sorted = append(sorted, p...)
			}
			d.ctx.noteShuffle(int64(len(sorted)))
			sort.SliceStable(sorted, func(i, j int) bool { return less(sorted[i], sorted[j]) })
		})
		return sorted
	})
}

// ---------- Actions ----------

// Collect evaluates the dataset and returns all elements in partition
// order.
func Collect[T any](d *Dataset[T]) []T {
	end := d.ctx.beginStage("rdd.Collect")
	parts := collectParts(d)
	var out []T
	for _, p := range parts {
		out = append(out, p...)
	}
	end(int64(len(out)))
	return out
}

// Count returns the number of elements.
func Count[T any](d *Dataset[T]) int {
	end := d.ctx.beginStage("rdd.Count")
	parts := collectParts(d)
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	end(int64(n))
	return n
}

// Reduce folds all elements with op; ok is false for an empty dataset.
func Reduce[T any](d *Dataset[T], op func(T, T) T) (result T, ok bool) {
	defer d.ctx.beginStage("rdd.Reduce")(int64(1))
	parts := collectParts(d)
	first := true
	for _, p := range parts {
		for _, v := range p {
			if first {
				result, first = v, false
			} else {
				result = op(result, v)
			}
		}
	}
	return result, !first
}

// TakeOrdered returns the n smallest elements under less.
func TakeOrdered[T any](d *Dataset[T], n int, less func(a, b T) bool) []T {
	all := Collect(d)
	sort.SliceStable(all, func(i, j int) bool { return less(all[i], all[j]) })
	if len(all) > n {
		all = all[:n]
	}
	return all
}

// CollectMap materialises a pair dataset into a map (later keys win).
func CollectMap[K comparable, V any](d *Dataset[Pair[K, V]]) map[K]V {
	out := make(map[K]V)
	for _, kv := range Collect(d) {
		out[kv.Key] = kv.Value
	}
	return out
}

// SaveAsText writes one line per element using fmt.Sprint.
func SaveAsText[T any](d *Dataset[T], path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	for _, v := range Collect(d) {
		if _, err := fmt.Fprintln(w, v); err != nil {
			return err
		}
	}
	return w.Flush()
}

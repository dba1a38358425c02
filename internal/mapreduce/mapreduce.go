// Package mapreduce is a MapReduce framework in the style of MapReduce-MPI
// (Plimpton & Devine), the library the kNN assignment is built on (paper
// §2). Jobs run SPMD on a cluster.World: every rank maps its local inputs
// to key-value pairs, optionally combines them locally ("local reductions
// at each rank", the optimisation the assignment highlights), exchanges
// pairs so that each key lands on the rank it hashes to (load balancing
// through hashing), and reduces each key's values.
package mapreduce

import (
	"sync"

	"repro/internal/cluster"
	"repro/internal/keyhash"
	"repro/internal/obs"
)

// Pair is one key-value pair.
type Pair[K comparable, V any] struct {
	Key   K
	Value V
}

// batch is the unit exchanged between ranks: the pairs bound for one
// rank, as runs of consecutive equal keys. Run i holds key Keys[i] and the
// values Vals[Ends[i-1]:Ends[i]] (from 0 for the first run), so a run
// costs one key however many values it carries. It reports its wire size
// to the cluster cost model, one PairBytes per pair, so combiner
// experiments measure real traffic.
type batch[K comparable, V any] struct {
	// Exported: the batch crosses rank boundaries via Alltoall, and a
	// network transport's codec only sees exported fields.
	Keys      []K
	Ends      []int
	Vals      []V
	PairBytes int
}

// WireSize implements cluster.Sizer.
func (b batch[K, V]) WireSize() int { return len(b.Vals) * b.PairBytes }

// router routes the pairs of a job without a combiner into the
// destination batches. Its open run is the last run of the batch open
// points to, and holds the key last, so Run's emit adds a value of last
// with one append and leaves every other key to route. A run's end is
// stored in Ends when its batch opens the next run; Run stores each
// batch's last after the map.
type router[K comparable, V any] struct {
	parts []batch[K, V] // by destination rank
	last  K
	open  *batch[K, V] // nil before the first pair
}

// route adds the pair (k, v) when k is not the open run's key: it opens a
// run for k in the batch of k's rank, or reopens that batch's last run
// when it holds k.
func (r *router[K, V]) route(k K, v V) {
	b := &r.parts[keyhash.Of(k)%uint64(len(r.parts))]
	if n := len(b.Keys); n == 0 || b.Keys[n-1] != k {
		if n > 0 {
			b.Ends[n-1] = len(b.Vals)
		}
		b.Keys = append(b.Keys, k)
		b.Ends = append(b.Ends, 0)
	}
	b.Vals = append(b.Vals, v)
	r.last, r.open = k, b
}

// wireKey stands for one (K, V, R) instantiation in registered.
type wireKey[K comparable, V, R any] struct{}

// registered maps the wireKey of every instantiation whose types are
// registered to that instantiation's *sync.Pool of spent batches (see
// Run), so a repeat registration is one lookup.
var registered sync.Map

// RegisterWireTypes registers one (K, V, R) instantiation's cross-rank
// payload types with the cluster wire codec: the shuffle batches and the
// gathered result maps (plus the gather tree's []map segments). In-process
// worlds need no registration, but on the net device (`peachy launch`)
// these travel as gob interface values, which decode by registered
// concrete type. Run calls this itself, so jobs work multi-process out of
// the box; it is exported for callers that build their own exchanges from
// the same types. Safe to call repeatedly: after the first call for an
// instantiation, a call allocates nothing.
func RegisterWireTypes[K comparable, V, R any]() { wireTypes[K, V, R]() }

// wireTypes registers the (K, V, R) instantiation's wire types on its
// first call and returns the instantiation's pool of spent batches.
func wireTypes[K comparable, V, R any]() *sync.Pool {
	if p, done := registered.Load(wireKey[K, V, R]{}); done {
		return p.(*sync.Pool)
	}
	cluster.RegisterWire(
		batch[K, V]{},
		map[K]R(nil),
		[]map[K]R(nil),
	)
	p, _ := registered.LoadOrStore(wireKey[K, V, R]{}, new(sync.Pool))
	return p.(*sync.Pool)
}

// keyGroups holds one destination rank's emissions per key, for a job
// with a combiner: one value slice per key, keys in first-emission order.
// The exchange serializes pairs in that recorded order, never in map
// iteration order, which Go randomizes per run and which would otherwise
// leak into the wire payload.
type keyGroups[K comparable, V any] struct {
	index map[K]int // key -> its position in keys and vals
	keys  []K
	vals  [][]V
}

// slot returns k's position in keys and vals, opening a group for a key
// not seen before.
func (g *keyGroups[K, V]) slot(k K) int {
	i, seen := g.index[k]
	if !seen {
		if g.index == nil {
			g.index = make(map[K]int)
		}
		i = len(g.keys)
		g.index[k] = i
		g.keys = append(g.keys, k)
		g.vals = append(g.vals, nil)
	}
	return i
}

// Job describes a MapReduce computation over inputs of type I, emitting
// (K, V) pairs and reducing each key to an R.
type Job[I any, K comparable, V, R any] struct {
	// Map processes one input and emits any number of pairs.
	Map func(in I, emit func(K, V))
	// Combine, when non-nil, folds the locally emitted values of a key
	// into a single value before the exchange, cutting communication.
	Combine func(k K, vs []V) V
	// Reduce folds all values of a key (gathered from every rank) into
	// the final result.
	Reduce func(k K, vs []V) R
	// PairBytes is the modeled wire size of one pair for the cost model;
	// 0 means the default of 16 bytes.
	PairBytes int
}

// Run executes the job on rank c with this rank's local inputs and returns
// the reduced results for the keys that hash to this rank. Every rank must
// call Run collectively.
func (j *Job[I, K, V, R]) Run(c *cluster.Comm, inputs []I) map[K]R {
	if j.Map == nil || j.Reduce == nil {
		panic("mapreduce: Job needs Map and Reduce")
	}
	spent := wireTypes[K, V, R]()
	pairBytes := j.PairBytes
	if pairBytes <= 0 {
		pairBytes = 16
	}
	size := c.Size()
	rec := c.Obs()

	// Map phase: route each emission to the rank its key hashes to.
	// Without a combiner the pair goes straight into that rank's batch, in
	// emission order; with one, values are grouped per key as they arrive,
	// because Combine needs each key's values together. Emissions tend to
	// come in runs of equal keys (kNN emits a query's candidates together),
	// so the last key's run, and with a combiner its group, stays open and
	// keyhash.Of runs only when the key changes.
	mapWall := rec.Now()
	mapSim := c.Clock()
	parts := make([]batch[K, V], size)
	// Without a combiner, each destination's batch starts from the arrays
	// of a spent batch of an earlier job, when the pool has one, so emit
	// appends into capacity instead of growing the arrays pair by pair.
	// The spent batch lets go of the arrays at once: it sits in one slice
	// with batches still in the pool, which keep it reachable, and should
	// emit outgrow an array, the old one would hold values no job clears.
	if j.Combine == nil {
		for r := range parts {
			if b, ok := spent.Get().(*batch[K, V]); ok {
				parts[r] = batch[K, V]{Keys: b.Keys[:0], Ends: b.Ends[:0], Vals: b.Vals[:0]}
				*b = batch[K, V]{}
			}
		}
	}
	var emit func(K, V)
	var groups []keyGroups[K, V]
	var emitted int64
	if j.Combine == nil {
		// The fast path is inline and route out of line, so emit holds
		// one captured pointer and a run's value costs one append.
		rt := &router[K, V]{parts: parts}
		emit = func(k K, v V) {
			if b := rt.open; b != nil && k == rt.last {
				b.Vals = append(b.Vals, v)
				return
			}
			rt.route(k, v)
		}
	} else {
		groups = make([]keyGroups[K, V], size)
		var last K
		dst, gi := -1, 0 // last's rank, or -1 before the first emission, and its position in groups[dst]
		emit = func(k K, v V) {
			if dst < 0 || k != last {
				last, dst = k, int(keyhash.Of(k)%uint64(size))
				gi = groups[dst].slot(k)
			}
			g := &groups[dst]
			g.vals[gi] = append(g.vals[gi], v)
			emitted++
		}
	}
	for _, in := range inputs {
		j.Map(in, emit)
	}
	if j.Combine == nil {
		for r := range parts {
			b := &parts[r]
			if n := len(b.Ends); n > 0 {
				b.Ends[n-1] = len(b.Vals) // the batch's last run, which no later run closed
			}
			emitted += int64(len(b.Vals))
		}
	}
	rec.PhaseSpan("mr.map", mapSim, c.Clock(), mapWall,
		obs.KV{K: "inputs", V: int64(len(inputs))}, obs.KV{K: "pairs", V: emitted})

	// Optional combine phase: fold each key's local values to one pair,
	// keys in first-emission order, so each run holds one value. A key
	// emitted once is sent as is.
	if j.Combine != nil {
		combWall := rec.Now()
		combSim := c.Clock()
		var kept int64
		for r := range groups {
			g := &groups[r]
			n := len(g.keys)
			b := batch[K, V]{Keys: g.keys, Ends: make([]int, n), Vals: make([]V, n)}
			for i, k := range g.keys {
				b.Vals[i] = g.vals[i][0]
				if len(g.vals[i]) > 1 {
					b.Vals[i] = j.Combine(k, g.vals[i])
				}
				b.Ends[i] = i + 1
			}
			parts[r] = b
			kept += int64(n)
		}
		rec.PhaseSpan("mr.combine", combSim, c.Clock(), combWall,
			obs.KV{K: "pairs_in", V: emitted}, obs.KV{K: "pairs_out", V: kept})
	}

	// Aggregate phase: total exchange of pair batches.
	for r := range parts {
		parts[r].PairBytes = pairBytes
	}
	incoming := cluster.Alltoall(c, parts)

	// Collate phase: group received pairs by key.
	collWall := rec.Now()
	collSim := c.Clock()
	keys, starts, vals := collate(incoming)
	nIn := len(vals)
	// The received batches go back to the pool for a later job's emit:
	// size taken, size returned. In-process they share their arrays with
	// the senders' parts, but no rank reads a batch once collate has
	// copied its pairs out. Keys and values are cleared first, so that a
	// pooled batch keeps no finished job's keys or values reachable.
	if j.Combine == nil {
		for r := range incoming {
			clear(incoming[r].Keys) //peachyvet:allow useaftersend — collate copied every pair out, and no rank reads a batch after the exchange
			clear(incoming[r].Vals) //peachyvet:allow useaftersend — as above
			spent.Put(&incoming[r])
		}
	}
	rec.PhaseSpan("mr.collate", collSim, c.Clock(), collWall,
		obs.KV{K: "pairs", V: int64(nIn)}, obs.KV{K: "keys", V: int64(len(keys))})
	// Per-reducer skew marker: this rank's share of the shuffled keys and
	// bytes, the quantity whose max/mean over ranks is the shuffle skew.
	rec.Instant("mr.skew", -1, 0, int64(nIn*pairBytes), c.Clock(),
		obs.KV{K: "keys", V: int64(len(keys))}, obs.KV{K: "pairs", V: int64(nIn)})

	// Reduce phase, keys in order of first appearance. Each key's group is
	// capped at its length, so an append inside Reduce reallocates instead
	// of overwriting the next key's values.
	redWall := rec.Now()
	redSim := c.Clock()
	out := make(map[K]R, len(keys))
	for i, k := range keys {
		lo, hi := starts[i], starts[i+1]
		out[k] = j.Reduce(k, vals[lo:hi:hi])
	}
	rec.PhaseSpan("mr.reduce", redSim, c.Clock(), redWall,
		obs.KV{K: "keys", V: int64(len(keys))})
	return out
}

// collate groups the received pairs by key with a counting sort over
// runs into one array. Keys are numbered in order of first appearance,
// taking the batches in source-rank order, and key i's values are
// vals[starts[i]:starts[i+1]], by source rank and then in batch order.
// Each run costs one map lookup and one copy.
func collate[K comparable, V any](batches []batch[K, V]) (keys []K, starts []int, vals []V) {
	n, runs := 0, 0
	for _, b := range batches {
		n += len(b.Vals)
		runs += len(b.Keys)
	}
	// First pass: number the keys and count the values per key, recording
	// each run's key number.
	index := make(map[K]int)
	keyOf := make([]int, runs)
	var counts []int
	i := 0
	for _, b := range batches {
		lo := 0
		for r, k := range b.Keys {
			ki, seen := index[k]
			if !seen {
				ki = len(keys)
				index[k] = ki
				keys = append(keys, k)
				counts = append(counts, 0)
			}
			counts[ki] += b.Ends[r] - lo
			lo = b.Ends[r]
			keyOf[i] = ki
			i++
		}
	}
	// Second pass: copy each run to its key's next free slots.
	starts = make([]int, len(keys)+1)
	for ki, cnt := range counts {
		starts[ki+1] = starts[ki] + cnt
	}
	next := counts // reused: each key's next free slot
	copy(next, starts)
	vals = make([]V, n)
	i = 0
	for _, b := range batches {
		lo := 0
		for _, end := range b.Ends {
			ki := keyOf[i]
			next[ki] += copy(vals[next[ki]:], b.Vals[lo:end])
			lo = end
			i++
		}
	}
	return keys, starts, vals
}

// RunToRoot runs the job and gathers every rank's reduced results onto
// rank 0, returning the merged map there (nil on other ranks).
func (j *Job[I, K, V, R]) RunToRoot(c *cluster.Comm, inputs []I) map[K]R {
	local := j.Run(c, inputs)
	all := cluster.Gather(c, 0, local)
	if c.Rank() != 0 {
		return nil
	}
	merged := make(map[K]R)
	for _, m := range all {
		for k, v := range m {
			merged[k] = v
		}
	}
	return merged
}

// Package mapreduce is a MapReduce framework in the style of MapReduce-MPI
// (Plimpton & Devine), the library the kNN assignment is built on (paper
// §2). Jobs run SPMD on a cluster.World: every rank maps its local inputs
// to key-value pairs, optionally combines them locally ("local reductions
// at each rank", the optimisation the assignment highlights), exchanges
// pairs so that each key lands on the rank it hashes to (load balancing
// through hashing), and reduces each key's values.
package mapreduce

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/obs"
)

// Pair is one emitted key-value pair.
type Pair[K comparable, V any] struct {
	Key   K
	Value V
}

// batch is the unit exchanged between ranks; it reports its wire size to
// the cluster cost model so combiner experiments measure real traffic.
type batch[K comparable, V any] struct {
	// Exported: the batch crosses rank boundaries via Alltoall, and a
	// network transport's codec only sees exported fields.
	Pairs     []Pair[K, V]
	PairBytes int
}

// WireSize implements cluster.Sizer.
func (b batch[K, V]) WireSize() int { return len(b.Pairs) * b.PairBytes }

// RegisterWireTypes registers one (K, V, R) instantiation's cross-rank
// payload types with the cluster wire codec: the shuffle batches and the
// gathered result maps (plus the gather tree's []map segments). In-process
// worlds need no registration, but on the net device (`peachy launch`)
// these travel as gob interface values, which decode by registered
// concrete type. Run calls this itself, so jobs work multi-process out of
// the box; it is exported for callers that build their own exchanges from
// the same types. Safe to call repeatedly.
func RegisterWireTypes[K comparable, V, R any]() {
	cluster.RegisterWire(
		batch[K, V]{},
		map[K]R(nil),
		[]map[K]R(nil),
	)
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

func (g *keyGroups[K, V]) add(k K, v V) {
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
	g.vals[i] = append(g.vals[i], v)
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
	RegisterWireTypes[K, V, R]()
	pairBytes := j.PairBytes
	if pairBytes <= 0 {
		pairBytes = 16
	}
	size := c.Size()
	rec := c.Obs()

	// Map phase: route each emission to the rank its key hashes to.
	// Without a combiner the pair goes straight into that rank's batch, in
	// emission order; with one, values are grouped per key as they arrive,
	// because Combine needs each key's values together.
	mapWall := rec.Now()
	mapSim := c.Clock()
	parts := make([]batch[K, V], size)
	var groups []keyGroups[K, V]
	var emitted int64
	emit := func(k K, v V) {
		dst := int(hashKey(k) % uint64(size))
		parts[dst].Pairs = append(parts[dst].Pairs, Pair[K, V]{k, v})
		emitted++
	}
	if j.Combine != nil {
		groups = make([]keyGroups[K, V], size)
		emit = func(k K, v V) {
			dst := int(hashKey(k) % uint64(size))
			groups[dst].add(k, v)
			emitted++
		}
	}
	for _, in := range inputs {
		j.Map(in, emit)
	}
	rec.PhaseSpan("mr.map", mapSim, c.Clock(), mapWall,
		obs.KV{K: "inputs", V: int64(len(inputs))}, obs.KV{K: "pairs", V: emitted})

	// Optional combine phase: fold each key's local values to one pair,
	// keys in first-emission order. A key emitted once is sent as is.
	if j.Combine != nil {
		combWall := rec.Now()
		combSim := c.Clock()
		var kept int64
		for r := range groups {
			g := &groups[r]
			ps := make([]Pair[K, V], len(g.keys))
			for i, k := range g.keys {
				v := g.vals[i][0]
				if len(g.vals[i]) > 1 {
					v = j.Combine(k, g.vals[i])
				}
				ps[i] = Pair[K, V]{k, v}
			}
			parts[r].Pairs = ps
			kept += int64(len(ps))
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

// collate groups the received pairs by key with a counting sort into one
// array. Keys are numbered in order of first appearance, taking the
// batches in source-rank order, and key i's values are
// vals[starts[i]:starts[i+1]], by source rank and then in batch order.
func collate[K comparable, V any](batches []batch[K, V]) (keys []K, starts []int, vals []V) {
	n := 0
	for _, b := range batches {
		n += len(b.Pairs)
	}
	// First pass: number the keys and count the pairs per key, recording
	// each pair's key number.
	index := make(map[K]int)
	keyOf := make([]int, n)
	var counts []int
	i := 0
	for _, b := range batches {
		for _, p := range b.Pairs {
			ki, seen := index[p.Key]
			if !seen {
				ki = len(keys)
				index[p.Key] = ki
				keys = append(keys, p.Key)
				counts = append(counts, 0)
			}
			counts[ki]++
			keyOf[i] = ki
			i++
		}
	}
	// Second pass: place each value at its key's next free slot.
	starts = make([]int, len(keys)+1)
	for ki, cnt := range counts {
		starts[ki+1] = starts[ki] + cnt
	}
	next := counts // reused: each key's next free slot
	copy(next, starts)
	vals = make([]V, n)
	i = 0
	for _, b := range batches {
		for _, p := range b.Pairs {
			vals[next[keyOf[i]]] = p.Value
			next[keyOf[i]]++
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

// hashKey maps a comparable key to a rank-assignment hash, deterministic
// across runs so experiment traffic counts are reproducible.
func hashKey[K comparable](k K) uint64 {
	switch v := any(k).(type) {
	case int:
		return mix(uint64(v))
	case int32:
		return mix(uint64(v))
	case int64:
		return mix(uint64(v))
	case uint64:
		return mix(v)
	case string:
		return fnv1a(v)
	default:
		return fnv1a(fmt.Sprint(v))
	}
}

func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

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

// bucket holds one destination rank's emissions: the values per key plus
// the keys in first-emission order. The exchange serializes pairs in that
// recorded order — never in map iteration order, which Go randomizes per
// run and which would otherwise leak into the wire payload.
type bucket[K comparable, V any] struct {
	vals  map[K][]V
	order []K
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

	// Map phase: bucket emissions by destination rank.
	mapWall := rec.Now()
	mapSim := c.Clock()
	buckets := make([]bucket[K, V], size)
	for r := range buckets {
		buckets[r].vals = make(map[K][]V)
	}
	var emitted int64
	emit := func(k K, v V) {
		dst := int(hashKey(k) % uint64(size))
		b := &buckets[dst]
		vs, seen := b.vals[k]
		if !seen {
			b.order = append(b.order, k)
		}
		b.vals[k] = append(vs, v)
		emitted++
	}
	for _, in := range inputs {
		j.Map(in, emit)
	}
	rec.PhaseSpan("mr.map", mapSim, c.Clock(), mapWall,
		obs.KV{K: "inputs", V: int64(len(inputs))}, obs.KV{K: "pairs", V: emitted})

	// Optional combine phase: fold each key's local values to one,
	// reusing each value slice's backing array for the folded result.
	if j.Combine != nil {
		combWall := rec.Now()
		combSim := c.Clock()
		var kept int64
		for i := range buckets {
			b := &buckets[i]
			for _, k := range b.order {
				if vs := b.vals[k]; len(vs) > 1 {
					cv := j.Combine(k, vs)
					b.vals[k] = append(vs[:0], cv)
				}
			}
			// Post-combine every key holds exactly one value.
			kept += int64(len(b.order))
		}
		rec.PhaseSpan("mr.combine", combSim, c.Clock(), combWall,
			obs.KV{K: "pairs_in", V: emitted}, obs.KV{K: "pairs_out", V: kept})
	}

	// Aggregate phase: total exchange of pair batches.
	parts := make([]batch[K, V], size)
	for r := range buckets {
		b := &buckets[r]
		n := 0
		for _, vs := range b.vals {
			n += len(vs)
		}
		ps := make([]Pair[K, V], 0, n)
		for _, k := range b.order {
			for _, v := range b.vals[k] {
				ps = append(ps, Pair[K, V]{k, v})
			}
		}
		parts[r] = batch[K, V]{Pairs: ps, PairBytes: pairBytes}
	}
	incoming := cluster.Alltoall(c, parts)

	// Collate phase: group received pairs by key.
	collWall := rec.Now()
	collSim := c.Clock()
	nIn := 0
	for _, bt := range incoming {
		nIn += len(bt.Pairs)
	}
	grouped := make(map[K][]V, nIn)
	for _, bt := range incoming {
		for _, p := range bt.Pairs {
			grouped[p.Key] = append(grouped[p.Key], p.Value)
		}
	}
	rec.PhaseSpan("mr.collate", collSim, c.Clock(), collWall,
		obs.KV{K: "pairs", V: int64(nIn)}, obs.KV{K: "keys", V: int64(len(grouped))})
	// Per-reducer skew marker: this rank's share of the shuffled keys and
	// bytes, the quantity whose max/mean over ranks is the shuffle skew.
	rec.Instant("mr.skew", -1, 0, int64(nIn*pairBytes), c.Clock(),
		obs.KV{K: "keys", V: int64(len(grouped))}, obs.KV{K: "pairs", V: int64(nIn)})

	// Reduce phase.
	redWall := rec.Now()
	redSim := c.Clock()
	out := make(map[K]R, len(grouped))
	for k, vs := range grouped {
		out[k] = j.Reduce(k, vs)
	}
	rec.PhaseSpan("mr.reduce", redSim, c.Clock(), redWall,
		obs.KV{K: "keys", V: int64(len(grouped))})
	return out
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

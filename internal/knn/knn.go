// Package knn implements the k-Nearest-Neighbor classification assignment
// (paper §2): a database of n preclassified d-dimensional points answers q
// query classifications by majority vote among the k nearest points.
//
// Variants mirror the assignment's arc:
//
//   - SequentialSort:  Θ(q·n·d + q·n·log n) — sort all distances.
//   - SequentialHeap:  Θ(q·n·(d + log k)) — the CLRS bounded-heap trick.
//   - Parallel:        queries split over goroutines (the OpenMP adaptation).
//   - KDTree:          space-partitioning acceleration (the Data Structures
//     variation).
//   - MapReduce:       the assignment's target formulation on MapReduce-MPI:
//     map tasks parse database shards and emit per-query candidates, local
//     combiners perform the per-rank reduction the assignment highlights,
//     and reducers merge candidates and vote.
package knn

import (
	"math"
	"sort"

	"repro/internal/cluster"
	"repro/internal/dataio"
	"repro/internal/heapk"
	"repro/internal/linalg"
	"repro/internal/mapreduce"
	"repro/internal/par"
	"repro/internal/spatial"
)

// Candidate is one potential neighbour: its squared distance and class.
type Candidate struct {
	Dist  float64
	Class int
}

// Vote returns the majority class among candidates, assumed to be the k
// nearest. Ties break toward the smaller class label so every variant
// agrees deterministically.
func Vote(cands []Candidate) int {
	// Class labels are small non-negative ints in every dataset variant;
	// count them in a stack array when they fit and only fall back to a
	// map for exotic label spaces.
	const stackClasses = 64
	fits := len(cands) > 0
	for _, c := range cands {
		if c.Class < 0 || c.Class >= stackClasses {
			fits = false
			break
		}
	}
	if fits {
		var counts [stackClasses]int
		maxClass := 0
		for _, c := range cands {
			counts[c.Class]++
			if c.Class > maxClass {
				maxClass = c.Class
			}
		}
		best, bestN := -1, -1
		for class := maxClass; class >= 0; class-- {
			if counts[class] >= bestN {
				best, bestN = class, counts[class]
			}
		}
		return best
	}
	counts := map[int]int{}
	for _, c := range cands {
		counts[c.Class]++
	}
	best, bestN := -1, -1
	for class, n := range counts {
		if n > bestN || (n == bestN && class < best) {
			best, bestN = class, n
		}
	}
	return best
}

// kNearestHeap returns the k nearest candidates to q using a bounded heap.
func kNearestHeap(db *dataio.Dataset, q []float64, k int) []Candidate {
	h := heapk.New[int](k)
	for i, p := range db.Points {
		bound := h.Bound()
		if d := linalg.SqDistBounded(q, p, bound); d < bound {
			h.Offer(d, db.Labels[i])
		}
	}
	items := h.Sorted()
	out := make([]Candidate, len(items))
	for i, it := range items {
		out[i] = Candidate{it.Priority, it.Value}
	}
	return out
}

// SequentialSort classifies queries by fully sorting the n distances per
// query — the Θ(n log n) baseline the assignment starts from.
func SequentialSort(db *dataio.Dataset, queries [][]float64, k int) []int {
	out := make([]int, len(queries))
	dists := make([]Candidate, db.Len())
	for qi, q := range queries {
		for i, p := range db.Points {
			dists[i] = Candidate{linalg.SqDist(q, p), db.Labels[i]}
		}
		sort.Slice(dists, func(a, b int) bool { return dists[a].Dist < dists[b].Dist })
		kk := k
		if kk > len(dists) {
			kk = len(dists)
		}
		out[qi] = Vote(dists[:kk])
	}
	return out
}

// SequentialHeap classifies queries with the Θ(n log k) bounded-heap
// selection.
func SequentialHeap(db *dataio.Dataset, queries [][]float64, k int) []int {
	out := make([]int, len(queries))
	for qi, q := range queries {
		out[qi] = Vote(kNearestHeap(db, q, k))
	}
	return out
}

// Parallel classifies queries with the heap selection, splitting the query
// set over workers goroutines — the shared-memory adaptation the paper
// suggests.
func Parallel(db *dataio.Dataset, queries [][]float64, k, workers int) []int {
	out := make([]int, len(queries))
	par.For(len(queries), workers, func(qi int) {
		out[qi] = Vote(kNearestHeap(db, queries[qi], k))
	})
	return out
}

// KDTree classifies queries against a pre-built k-d tree, in parallel over
// queries.
func KDTree(tree *spatial.KDTree, queries [][]float64, k, workers int) []int {
	out := make([]int, len(queries))
	par.For(len(queries), workers, func(qi int) {
		labels, dists := tree.Nearest(queries[qi], k, nil)
		cands := make([]Candidate, len(labels))
		for i := range labels {
			cands[i] = Candidate{dists[i], labels[i]}
		}
		out[qi] = Vote(cands)
	})
	return out
}

// dbShard is the map input: a contiguous slice of database rows. Every
// rank holds the full query set (the assignment assumes queries are small
// and replicated).
type dbShard struct {
	Points [][]float64
	Labels []int
}

// annulusPivots is the number of vantage pivots the annulus index keeps.
// The first orders the scan; the rest only filter.
const annulusPivots = 3

// annulusIndex accelerates exact k-nearest scans over a fixed point set
// with vantage-point pruning. Points are sorted by distance ("radius")
// to a corner pivot — chosen by the farthest-point heuristic so that
// clustered data lands in well-separated radius bands (a centroid pivot
// would see all clusters at similar radii and prune nothing). A query
// scans outward from its own radius in both directions; the triangle
// inequality gives d(q,p) >= |d(q,v) - d(p,v)| for any pivot v, so a
// direction stops permanently once its gap to the first pivot reaches
// the current heap bound, and the remaining pivots veto individual
// candidates before the full distance is computed. Results are identical
// to a full scan (every bound is conservative); only candidate-visit
// order changes.
type annulusIndex struct {
	order  []int                    // point indices by ascending first-pivot radius
	radius [annulusPivots][]float64 // per-pivot radii, in order[] order
	pivots [annulusPivots][]float64 // the pivot points
}

func newAnnulusIndex(points [][]float64) *annulusIndex {
	np := len(points)
	ann := &annulusIndex{order: make([]int, np)}
	if np == 0 {
		return ann
	}
	centroid := make([]float64, len(points[0]))
	for _, p := range points {
		for d, v := range p {
			centroid[d] += v
		}
	}
	for d := range centroid {
		centroid[d] /= float64(np)
	}
	// Farthest-point chain: pivot 0 is the point farthest from the
	// centroid, each next pivot the point farthest from the previous —
	// extremes that end up in distinct clusters when the data has them.
	farthest := func(from []float64) []float64 {
		best, bestD := 0, -1.0
		for i, p := range points {
			if d := linalg.SqDist(p, from); d > bestD {
				best, bestD = i, d
			}
		}
		return points[best]
	}
	prev := centroid
	for j := range ann.pivots {
		ann.pivots[j] = farthest(prev)
		prev = ann.pivots[j]
	}
	byPoint := make([]float64, np)
	for i, p := range points {
		byPoint[i] = math.Sqrt(linalg.SqDist(p, ann.pivots[0]))
		ann.order[i] = i
	}
	sort.Slice(ann.order, func(a, b int) bool {
		ra, rb := byPoint[ann.order[a]], byPoint[ann.order[b]]
		if ra != rb {
			return ra < rb
		}
		return ann.order[a] < ann.order[b] // deterministic on radius ties
	})
	for j := range ann.radius {
		ann.radius[j] = make([]float64, np)
	}
	for s, i := range ann.order {
		ann.radius[0][s] = byPoint[i]
		for j := 1; j < annulusPivots; j++ {
			ann.radius[j][s] = math.Sqrt(linalg.SqDist(points[i], ann.pivots[j]))
		}
	}
	return ann
}

// kNearest offers the query's k nearest shard points to h (which the
// caller has Reset to the desired k).
func (ann *annulusIndex) kNearest(q []float64, shard dbShard, h *heapk.Heap[int]) {
	np := len(ann.order)
	if np == 0 {
		return
	}
	var rq [annulusPivots]float64
	for j := range rq {
		rq[j] = math.Sqrt(linalg.SqDist(q, ann.pivots[j]))
	}
	r0 := ann.radius[0]
	hi := sort.SearchFloat64s(r0, rq[0])
	lo := hi - 1
	visit := func(s int, bound float64) {
		for j := 1; j < annulusPivots; j++ {
			if g := rq[j] - ann.radius[j][s]; g*g >= bound {
				return
			}
		}
		i := ann.order[s]
		if d := linalg.SqDistBounded(q, shard.Points[i], bound); d < bound {
			h.Offer(d, shard.Labels[i])
		}
	}
	for lo >= 0 || hi < np {
		bound := h.Bound()
		if lo >= 0 {
			if g := rq[0] - r0[lo]; g*g >= bound {
				lo = -1
			}
		}
		if hi < np {
			if g := r0[hi] - rq[0]; g*g >= bound {
				hi = np
			}
		}
		switch {
		case lo >= 0 && (hi >= np || rq[0]-r0[lo] <= r0[hi]-rq[0]):
			visit(lo, bound)
			lo--
		case hi < np:
			visit(hi, bound)
			hi++
		}
	}
}

// MapReduce classifies queries on a cluster.World using the MapReduce
// formulation. The database is sharded across ranks; each map task scans
// its shard against all queries. With useCombiner, each rank first merges
// its local candidate lists down to k per query — the "local reductions at
// each rank [that] noticeably improve the communication cost". Reduce
// merges candidate lists and votes. Predictions are returned indexed by
// query.
func MapReduce(world *cluster.World, db *dataio.Dataset, queries [][]float64, k int, useCombiner bool) ([]int, error) {
	shards := make([]dbShard, world.Size())
	pointParts := cluster.SplitEven(db.Points, world.Size())
	labelParts := cluster.SplitEven(db.Labels, world.Size())
	for r := range shards {
		shards[r] = dbShard{pointParts[r], labelParts[r]}
	}

	job := &mapreduce.Job[dbShard, int, []Candidate, int]{
		Map: func(shard dbShard, emit func(int, []Candidate)) {
			if !useCombiner {
				// The per-point baseline the combiner experiment
				// compares against: every candidate crosses the wire,
				// each as a capped one-element window of its query's
				// candidate array.
				for qi, q := range queries {
					cands := make([]Candidate, len(shard.Points))
					for i, p := range shard.Points {
						cands[i] = Candidate{linalg.SqDist(q, p), shard.Labels[i]}
						emit(qi, cands[i:i+1:i+1])
					}
				}
				return
			}
			// Per-shard annulus index, built once and amortised over
			// the query sweep (Map runs once per rank, so all of this
			// state is goroutine-local): points sorted by distance to
			// the shard centroid. By the triangle inequality
			// d(q,p) >= |d(q,c) - d(p,c)|, so scanning outward from
			// the query's own radius lets a side stop as soon as its
			// annulus gap squared reaches the heap bound — and the
			// gaps only grow from there. Scanning near-radius points
			// first also tightens the bound much faster than shard
			// order.
			ann := newAnnulusIndex(shard.Points)
			h := heapk.New[int](k)
			for qi, q := range queries {
				h.Reset()
				ann.kNearest(q, shard, h)
				// The combiner re-selects with its own heap, so
				// emission order is irrelevant; Items avoids Sorted's
				// destructive re-sift, and one backing array serves
				// all k singleton emissions.
				items := h.Items()
				arr := make([]Candidate, len(items))
				for i, it := range items {
					arr[i] = Candidate{it.Priority, it.Value}
				}
				for i := range arr {
					emit(qi, arr[i:i+1])
				}
			}
		},
		Reduce: func(_ int, lists [][]Candidate) int {
			h := heapk.New[int](k)
			for _, list := range lists {
				for _, c := range list {
					h.Offer(c.Dist, c.Class)
				}
			}
			// Vote is order-independent, so skip Sorted's re-sift.
			items := h.Items()
			cands := make([]Candidate, len(items))
			for i, it := range items {
				cands[i] = Candidate{it.Priority, it.Value}
			}
			return Vote(cands)
		},
		PairBytes: 16,
	}
	if useCombiner {
		job.Combine = func(_ int, lists [][]Candidate) []Candidate {
			h := heapk.New[int](k)
			for _, list := range lists {
				for _, c := range list {
					h.Offer(c.Dist, c.Class)
				}
			}
			items := h.Sorted()
			out := make([]Candidate, len(items))
			for i, it := range items {
				out[i] = Candidate{it.Priority, it.Value}
			}
			return out
		}
		job.PairBytes = 16 * k
	}

	preds := make([]int, len(queries))
	err := world.Run(func(c *cluster.Comm) {
		merged := job.RunToRoot(c, []dbShard{shards[c.Rank()]})
		if c.Rank() == 0 {
			for qi, class := range merged {
				preds[qi] = class
			}
		}
	})
	if err != nil {
		return nil, err
	}
	return preds, nil
}

// Accuracy scores predictions against true labels.
func Accuracy(pred, labels []int) float64 {
	if len(pred) == 0 {
		return 0
	}
	hits := 0
	for i, p := range pred {
		if p == labels[i] {
			hits++
		}
	}
	return float64(hits) / float64(len(pred))
}

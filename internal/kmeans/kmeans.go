// Package kmeans implements the K-means clustering assignment (paper §3):
// a sequential baseline plus the three shared-memory parallelisation
// strategies of the assignment's four-stage ladder — critical sections,
// atomic operations, and private-copy reductions — and a distributed
// version whose update phase is a single Allreduce, the formulation the
// paper reports students found natural in MPI.
//
// The main loop matches the assignment's starter code: (1) re-assign each
// point to its closest centroid, tracking the number of cluster changes;
// (2) recompute each centroid as the mean of its points; terminate on an
// iteration cap, a cluster-changes threshold, or a maximum centroid
// displacement threshold.
package kmeans

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/linalg"
	"repro/internal/par"
	"repro/internal/prng"
)

// Strategy selects how the shared accumulators of both phases are updated
// in parallel.
type Strategy int

const (
	// Sequential runs the textbook serial loops.
	Sequential Strategy = iota
	// Critical guards shared sums with one mutex (ladder stage 2).
	Critical
	// Atomic updates shared sums with lock-free atomics (stage 3).
	Atomic
	// Reduction keeps private per-worker sums merged at the end
	// (stage 4).
	Reduction
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case Sequential:
		return "sequential"
	case Critical:
		return "critical"
	case Atomic:
		return "atomic"
	case Reduction:
		return "reduction"
	}
	return "unknown"
}

// Options configures a clustering run.
type Options struct {
	// K is the number of clusters.
	K int
	// MaxIter caps the number of iterations (default 100).
	MaxIter int
	// MinChanges stops the loop once an iteration re-assigns at most
	// this many points (default 0: run until no point moves).
	MinChanges int
	// MaxMove stops the loop once no centroid moves farther than this
	// Euclidean distance in one iteration (default 1e-9).
	MaxMove float64
	// Seed drives the random initial centroid choice.
	Seed uint64
	// Workers is the parallel width (<= 0: GOMAXPROCS).
	Workers int
	// Strategy selects the parallelisation strategy.
	Strategy Strategy
	// Init selects the initial-centroid strategy (default RandomInit).
	Init Init
}

func (o *Options) defaults(n int) {
	if o.K < 1 {
		o.K = 1
	}
	if o.K > n {
		o.K = n
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 100
	}
	if o.MaxMove <= 0 {
		o.MaxMove = 1e-9
	}
}

// Result is the outcome of a clustering run.
type Result struct {
	// Centroids are the final cluster centers (K x dim).
	Centroids [][]float64
	// Assign maps each point to its cluster.
	Assign []int
	// Iterations is how many update iterations ran.
	Iterations int
	// ChangesPerIter records the cluster-changes counter per iteration.
	ChangesPerIter []int
	// Converged is false if MaxIter stopped the loop.
	Converged bool
}

// WCSS returns the within-cluster sum of squared distances — the
// objective K-means minimises — for the given points under this result.
func (r *Result) WCSS(points [][]float64) float64 {
	s := 0.0
	for i, p := range points {
		s += linalg.SqDist(p, r.Centroids[r.Assign[i]])
	}
	return s
}

// initCentroids picks K distinct random points as starting centroids, as
// in the assignment's starter code.
func initCentroids(points [][]float64, k int, seed uint64) [][]float64 {
	r := prng.New(seed)
	perm := r.Perm(len(points))
	cents := make([][]float64, k)
	for c := 0; c < k; c++ {
		cents[c] = append([]float64(nil), points[perm[c]]...)
	}
	return cents
}

// Run clusters points with the configured strategy.
func Run(points [][]float64, opts Options) *Result {
	n := len(points)
	if n == 0 {
		return &Result{Converged: true}
	}
	opts.defaults(n)
	dim := len(points[0])
	var cents [][]float64
	if opts.Init == PlusPlusInit {
		cents = initPlusPlus(points, opts.K, opts.Seed)
	} else {
		cents = initCentroids(points, opts.K, opts.Seed)
	}
	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	res := &Result{Assign: assign}

	for it := 0; it < opts.MaxIter; it++ {
		changes := assignPhase(points, cents, assign, opts)
		sums, counts := updatePhase(points, assign, opts.K, dim, opts)

		// New centroid positions; empty clusters keep their centroid.
		maxMove := 0.0
		for c := 0; c < opts.K; c++ {
			if counts[c] == 0 {
				continue
			}
			move := 0.0
			for d := 0; d < dim; d++ {
				nv := sums[c*dim+d] / float64(counts[c])
				diff := nv - cents[c][d]
				move += diff * diff
				cents[c][d] = nv
			}
			if m := math.Sqrt(move); m > maxMove {
				maxMove = m
			}
		}

		res.Iterations++
		res.ChangesPerIter = append(res.ChangesPerIter, changes)
		if changes <= opts.MinChanges || maxMove <= opts.MaxMove {
			res.Converged = true
			break
		}
	}
	res.Centroids = cents
	return res
}

// centIndex is a scratch view of the centroids, rebuilt once per
// iteration: the rows flattened into one contiguous buffer plus
// per-centroid squared norms. nearest scores centroid c as
// ||c||² − 2·p·c, which has the same argmin as the squared distance
// ||p − c||² (the ||p||² term is constant per point) but needs a third
// fewer flops and one function call per point instead of one per
// centroid. Ties still break toward the lower index. Every K-means
// variant (sequential, shared-memory, distributed) assigns through
// this kernel, so cross-variant comparisons stay self-consistent.
type centIndex struct {
	dim  int
	k    int
	flat []float64 // len k*dim, row-major centroid coordinates
	norm []float64 // len k, squared norms
	// Register-kernel layout, built when k <= nearestLanes: the
	// transposed coordinates padded to a fixed nearestLanes columns per
	// dimension. Unused lanes repeat centroid 0, so their scores equal
	// lane 0's bit for bit, NaN included, and the lower-index tie rule
	// keeps them from winning whatever the input.
	t8 []float64 // len dim*nearestLanes
	n8 [nearestLanes]float64
}

// nearestLanes is the lane count of the register-resident argmin
// kernel; larger K falls back to the row-major scan.
const nearestLanes = 8

// rebuild refreshes the index from the current centroid positions,
// reusing the buffers from the previous iteration.
func (ci *centIndex) rebuild(cents [][]float64) {
	k := len(cents)
	ci.k = k
	if k == 0 {
		ci.dim, ci.flat, ci.norm = 0, ci.flat[:0], ci.norm[:0]
		return
	}
	ci.dim = len(cents[0])
	if cap(ci.flat) < k*ci.dim {
		ci.flat = make([]float64, k*ci.dim)
	}
	if cap(ci.norm) < k {
		ci.norm = make([]float64, k)
	}
	ci.flat = ci.flat[:k*ci.dim]
	ci.norm = ci.norm[:k]
	for c, cent := range cents {
		copy(ci.flat[c*ci.dim:(c+1)*ci.dim], cent)
		s := 0.0
		for _, v := range cent {
			s += v * v
		}
		ci.norm[c] = s
	}
	if k > nearestLanes {
		ci.t8 = ci.t8[:0]
		return
	}
	if cap(ci.t8) < ci.dim*nearestLanes {
		ci.t8 = make([]float64, ci.dim*nearestLanes)
	}
	ci.t8 = ci.t8[:ci.dim*nearestLanes]
	for c := range ci.n8 {
		src := c
		if c >= k {
			src = 0 // padding repeats centroid 0
		}
		ci.n8[c] = ci.norm[src]
		for d, v := range cents[src] {
			ci.t8[d*nearestLanes+c] = v
		}
	}
}

// scoreKey maps a score to an int64 whose signed order is the score's
// order: non-negative floats keep their bits, negative ones flip all
// but the sign bit, so a larger magnitude sorts lower. The order is the
// float order for every non-NaN value except that −0 sorts below +0
// (nearest explains why no score is −0); a NaN sorts by its sign bit,
// beyond −Inf or +Inf.
func scoreKey(s float64) int64 {
	b := int64(math.Float64bits(s))
	return b ^ int64(uint64(b>>63)>>1)
}

// nearest returns the closest centroid index for p. Safe for concurrent
// use by multiple workers between rebuilds.
//
// For K ≤ nearestLanes the kernel walks dimensions in the outer loop
// against the padded transposed layout, keeping all K running scores in
// registers: the inner statements are independent multiply-adds, so the
// loop is throughput-bound instead of serialised on one floating-point
// add chain per centroid.
//
// The argmin has no branch. The winning centroid changes from point to
// point, so a compare-and-jump per centroid is mispredicted about as
// often as it is taken. Instead each score becomes its scoreKey, and a
// linear `if k < bk { best, bk = i, k }` chain, which the compiler turns
// into conditional moves, keeps the first minimum: ties still go to the
// lower index.
//
// On finite input this is exactly the float `<` scan's answer. Keys
// order like floats except that −0 sorts below +0, and no score is −0:
// a sum or difference is −0 only when its first term is −0 (an exact
// zero from anything else rounds to +0), and every score starts from a
// squared norm, a sum of squares begun at +0. A NaN or ±Inf coordinate
// can make scores NaN (−Inf·0 is one). The float scan never picks a
// NaN, the keys order it by its sign bit, so the answer may then differ
// from the scan's; it is still an index in [0, K) and never a panic,
// because padded lanes tie with lane 0 and lose.
func (ci *centIndex) nearest(p []float64) int {
	if ci.k > nearestLanes {
		return ci.nearestRowwise(p)
	}
	a0, a1, a2, a3 := ci.n8[0], ci.n8[1], ci.n8[2], ci.n8[3]
	a4, a5, a6, a7 := ci.n8[4], ci.n8[5], ci.n8[6], ci.n8[7]
	t8 := ci.t8
	off := 0
	for _, pv := range p[:ci.dim] {
		m := -2 * pv
		row := t8[off : off+nearestLanes]
		a0 += m * row[0]
		a1 += m * row[1]
		a2 += m * row[2]
		a3 += m * row[3]
		a4 += m * row[4]
		a5 += m * row[5]
		a6 += m * row[6]
		a7 += m * row[7]
		off += nearestLanes
	}
	best, bk := 0, scoreKey(a0)
	if k := scoreKey(a1); k < bk {
		best, bk = 1, k
	}
	if k := scoreKey(a2); k < bk {
		best, bk = 2, k
	}
	if k := scoreKey(a3); k < bk {
		best, bk = 3, k
	}
	if k := scoreKey(a4); k < bk {
		best, bk = 4, k
	}
	if k := scoreKey(a5); k < bk {
		best, bk = 5, k
	}
	if k := scoreKey(a6); k < bk {
		best, bk = 6, k
	}
	if k := scoreKey(a7); k < bk {
		best = 7
	}
	return best
}

// nearestRowwise is the large-K fallback: one dot product per centroid
// against the row-major layout, with the same branch-free argmin over
// score keys as nearest.
func (ci *centIndex) nearestRowwise(p []float64) int {
	best, bk := 0, int64(math.MaxInt64)
	dim := ci.dim
	p = p[:dim]
	off := 0
	for c := range ci.norm {
		row := ci.flat[off : off+dim]
		var s0, s1 float64
		i := 0
		for ; i+1 < len(row); i += 2 {
			s0 += p[i] * row[i]
			s1 += p[i+1] * row[i+1]
		}
		if i < len(row) {
			s0 += p[i] * row[i]
		}
		if k := scoreKey(ci.norm[c] - 2*(s0+s1)); k < bk {
			best, bk = c, k
		}
		off += dim
	}
	return best
}

// assignPhase re-assigns points and returns the number of changes. The
// write race on assign is benign (each worker owns its indices); the
// update race on the changes counter is the one the strategies resolve.
func assignPhase(points [][]float64, cents [][]float64, assign []int, opts Options) int {
	n := len(points)
	var ci centIndex
	ci.rebuild(cents)
	switch opts.Strategy {
	case Sequential:
		changes := 0
		for i := 0; i < n; i++ {
			c := ci.nearest(points[i])
			if c != assign[i] {
				changes++
				assign[i] = c
			}
		}
		return changes
	case Critical:
		acc := par.NewCriticalAccumulator(0, 1)
		par.For(n, opts.Workers, func(i int) {
			c := ci.nearest(points[i])
			if c != assign[i] {
				assign[i] = c
				acc.AddCount(0, 1)
			}
		})
		return int(acc.Counts()[0])
	case Atomic:
		acc := par.NewAtomicAccumulator(0, 1)
		par.For(n, opts.Workers, func(i int) {
			c := ci.nearest(points[i])
			if c != assign[i] {
				assign[i] = c
				acc.AddCount(0, 1)
			}
		})
		return int(acc.Count(0))
	default: // Reduction
		return par.Reduce(n, opts.Workers,
			func() int { return 0 },
			func(acc int, i int) int {
				c := ci.nearest(points[i])
				if c != assign[i] {
					assign[i] = c
					return acc + 1
				}
				return acc
			},
			func(a, b int) int { return a + b })
	}
}

// updatePhase accumulates per-cluster coordinate sums and counts — the
// load-balance- and race-heavy phase the assignment highlights.
func updatePhase(points [][]float64, assign []int, k, dim int, opts Options) ([]float64, []int64) {
	n := len(points)
	switch opts.Strategy {
	case Sequential:
		sums := make([]float64, k*dim)
		counts := make([]int64, k)
		for i := 0; i < n; i++ {
			c := assign[i]
			counts[c]++
			base := c * dim
			for d, v := range points[i] {
				sums[base+d] += v
			}
		}
		return sums, counts
	case Critical:
		acc := par.NewCriticalAccumulator(k*dim, k)
		par.For(n, opts.Workers, func(i int) {
			c := assign[i]
			acc.Update(func(sums []float64, counts []int64) {
				counts[c]++
				base := c * dim
				for d, v := range points[i] {
					sums[base+d] += v
				}
			})
		})
		return acc.Sums(), acc.Counts()
	case Atomic:
		acc := par.NewAtomicAccumulator(k*dim, k)
		par.For(n, opts.Workers, func(i int) {
			c := assign[i]
			acc.AddCount(c, 1)
			base := c * dim
			for d, v := range points[i] {
				acc.AddSum(base+d, v)
			}
		})
		sums := make([]float64, k*dim)
		counts := make([]int64, k)
		for i := range sums {
			sums[i] = acc.Sum(i)
		}
		for c := range counts {
			counts[c] = acc.Count(c)
		}
		return sums, counts
	default: // Reduction
		type partial struct {
			sums   []float64
			counts []int64
		}
		p := par.Reduce(n, opts.Workers,
			func() partial {
				return partial{make([]float64, k*dim), make([]int64, k)}
			},
			func(acc partial, i int) partial {
				c := assign[i]
				acc.counts[c]++
				base := c * dim
				for d, v := range points[i] {
					acc.sums[base+d] += v
				}
				return acc
			},
			func(a, b partial) partial {
				for i := range a.sums {
					a.sums[i] += b.sums[i]
				}
				for i := range a.counts {
					a.counts[i] += b.counts[i]
				}
				return a
			})
		return p.sums, p.counts
	}
}

// RunDistributed clusters points across a cluster.World: points are
// scattered block-wise, every rank assigns its local block, and the update
// phase is one Allreduce of (sums, counts, changes) — after which every
// rank updates its replicated centroids identically. The full Result
// (with the gathered global assignment) is returned.
//
// On a multi-process world (net device) each process returns its local
// rank's Result: centroids, iteration counts and convergence are
// replicated — identical on every rank — but the gathered global Assign
// lands only on rank 0, so non-lead processes get a Result with Assign
// nil. Gate WCSS/assignment consumers on world.Lead().
func RunDistributed(world *cluster.World, points [][]float64, opts Options) (*Result, error) {
	n := len(points)
	if n == 0 {
		return &Result{Converged: true}, nil
	}
	opts.defaults(n)
	dim := len(points[0])
	k := opts.K

	results := make([]*Result, world.Size())
	err := world.Run(func(c *cluster.Comm) {
		// Scatter the points (root parses "the database file"; everyone
		// receives its block, as in the assignment's data distribution).
		var parts [][][]float64
		if c.Rank() == 0 {
			parts = cluster.SplitEven(points, c.Size())
		}
		local := cluster.Scatter(c, 0, parts)

		// Root chooses initial centroids; broadcast them.
		var cents [][]float64
		if c.Rank() == 0 {
			if opts.Init == PlusPlusInit {
				cents = initPlusPlus(points, k, opts.Seed)
			} else {
				cents = initCentroids(points, k, opts.Seed)
			}
		}
		cents = cluster.Bcast(c, 0, cents)
		// Deep-copy: Bcast shares the backing arrays in-process, and
		// every rank updates its replica.
		mine := make([][]float64, k)
		for i := range cents {
			mine[i] = append([]float64(nil), cents[i]...)
		}
		cents = mine

		assign := make([]int, len(local))
		for i := range assign {
			assign[i] = -1
		}
		iterations := 0
		var changesPerIter []int
		converged := false

		var ci centIndex
		buf := make([]float64, k*dim+k+1) // sums | counts | changes
		for it := 0; it < opts.MaxIter; it++ {
			// Local assignment + local partial sums. The reduction buffer
			// is hoisted out of the loop and zeroed per iteration:
			// Allreduce snapshots its payload, so the argument is free for
			// reuse as soon as the call returns.
			ci.rebuild(cents)
			for i := range buf {
				buf[i] = 0
			}
			for i, p := range local {
				cl := ci.nearest(p)
				if cl != assign[i] {
					assign[i] = cl
					buf[k*dim+k]++
				}
				base := cl * dim
				for d, v := range p {
					buf[base+d] += v
				}
				buf[k*dim+cl]++
			}
			// One distributed reduction for everything.
			red := cluster.Allreduce(c, buf, cluster.SumFloat64s)

			maxMove := 0.0
			for cl := 0; cl < k; cl++ {
				cnt := red[k*dim+cl]
				if cnt == 0 {
					continue
				}
				move := 0.0
				for d := 0; d < dim; d++ {
					nv := red[cl*dim+d] / cnt
					diff := nv - cents[cl][d]
					move += diff * diff
					cents[cl][d] = nv
				}
				if m := math.Sqrt(move); m > maxMove {
					maxMove = m
				}
			}
			changes := int(red[k*dim+k])
			iterations++
			changesPerIter = append(changesPerIter, changes)
			if changes <= opts.MinChanges || maxMove <= opts.MaxMove {
				converged = true
				break
			}
		}

		// Gather assignments back to root; every rank records its
		// (replicated) view so a non-root process of a multi-process
		// world still returns the shared outcome.
		gathered := cluster.Gather(c, 0, assign)
		res := &Result{
			Centroids:      cents,
			Iterations:     iterations,
			ChangesPerIter: changesPerIter,
			Converged:      converged,
		}
		if c.Rank() == 0 {
			full := make([]int, 0, n)
			for _, g := range gathered {
				full = append(full, g...)
			}
			res.Assign = full
		}
		results[c.Rank()] = res
	})
	if err != nil {
		return nil, err
	}
	mine := 0
	if world.Launched() {
		mine = world.LocalRank()
	}
	if results[mine] == nil {
		return nil, fmt.Errorf("kmeans: distributed run produced no result")
	}
	return results[mine], nil
}

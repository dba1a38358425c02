package main

import (
	"fmt"
	"math"
	"os"
	"slices"
	"time"

	"repro/internal/cluster"
	"repro/internal/dataio"
	"repro/internal/kmeans"
	"repro/internal/knn"
	"repro/internal/obs"
	"repro/internal/prng"
)

// worldUp brings an in-process world up: every rank's goroutine started
// and through a first Barrier.
func worldUp(ranks int) (*cluster.World, error) {
	w := cluster.NewWorld(ranks)
	return w, w.Run(func(c *cluster.Comm) { c.Barrier() })
}

// libraryOp runs one op that is a single library call on world: it times
// the call, checks its result untimed, and records the op, the world's
// message counters and simulated makespan, and, in a traced phase, the
// op's metrics document.
func libraryOp(world *cluster.World, t *tally, call func() error, check func() bool) time.Duration {
	var tr *obs.Trace
	if t.traced {
		tr = world.Observe()
	}
	world.ResetStats()
	start := time.Now()
	err := call()
	lat := time.Since(start)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
	}
	t.op(lat, err == nil && check())
	t.add("msgs", float64(world.TotalMessages()))
	t.add("bytes", float64(world.TotalBytes()))
	t.addSim(world.SimTime(), 1)
	if tr != nil {
		t.addObs(tr.Metrics(), 1)
	}
	return lat
}

// kmeans-c4: the C4 exhibit, distributed K-means on four goroutine ranks.
// The data are overlapping Gaussian blobs, so Lloyd's iteration never
// converges before the 20-iteration cap (none of seeds 1 to 1000 does)
// and every seed does the same work. An op takes a few milliseconds: on a
// shared host an op much longer than the host's quiet spells, which last
// some 10 to 25 ms, is never timed clean (README.md, "Bounds").
const (
	c4Ranks  = 4
	c4Points = 4_000
	c4Dim    = 4
	c4K      = 8
	c4Iters  = 20
	c4Spread = 50.0 // blob spread; blob centres lie in [0,100)^d
	// c4SeqRuns is how many sequential runs kernel.ns_per_dist_eval takes
	// the quickest of.
	c4SeqRuns = 20
)

type kmeansC4 struct {
	points [][]float64
	opts   kmeans.Options
	want   *kmeans.Result // the sequential kmeans.Run oracle
	wcss   float64
	seqNs  float64 // sequential wall per distance evaluation
	world  *cluster.World
}

func openKMeansC4(cfg config) (runner, error) {
	k := &kmeansC4{
		points: dataio.GaussianMixture(cfg.seed, c4Points, c4Dim, c4K, c4Spread).Points,
		opts:   kmeans.Options{K: c4K, MaxIter: c4Iters, Seed: cfg.seed},
	}
	seq := k.opts
	seq.Strategy = kmeans.Sequential
	best := time.Duration(math.MaxInt64)
	for i := 0; i < c4SeqRuns; i++ {
		start := time.Now()
		k.want = kmeans.Run(k.points, seq)
		best = min(best, time.Since(start))
	}
	k.seqNs = float64(best.Nanoseconds()) / float64(c4Points*c4K*k.want.Iterations)
	k.wcss = k.want.WCSS(k.points)
	return k, nil
}

func (k *kmeansC4) up() (err error) {
	k.world, err = worldUp(c4Ranks)
	return err
}

func (k *kmeansC4) batch(n int, t *tally) (time.Duration, error) {
	var wall time.Duration
	for i := 0; i < n; i++ {
		var res *kmeans.Result
		wall += libraryOp(k.world, t, func() (err error) {
			res, err = kmeans.RunDistributed(k.world, k.points, k.opts)
			return err
		}, func() bool { return k.matches(res) })
		if res != nil {
			t.add("iterations", float64(res.Iterations))
		}
	}
	return wall, nil
}

// matches compares a distributed result with the sequential oracle: the
// same iterations and assignment, and WCSS equal up to the reordering of
// floating-point sums across ranks.
func (k *kmeansC4) matches(res *kmeans.Result) bool {
	return res.Iterations == k.want.Iterations && slices.Equal(res.Assign, k.want.Assign) &&
		math.Abs(res.WCSS(k.points)-k.wcss) <= 1e-9*k.wcss
}

func (k *kmeansC4) layers(p, tr *tally) map[string]float64 {
	iters := p.per("iterations")
	return map[string]float64{
		"kmeans.iterations":        iters,
		"kernel.dist_evals_per_op": c4Points * c4K * iters,
		"kernel.ns_per_dist_eval":  k.seqNs,
		"kmeans.allreduce_share":   tr.sums["obs.Allreduce.wall_ns"] / c4Ranks / float64(tr.wall.Nanoseconds()),
	}
}

func (k *kmeansC4) close() {}

// knn-shuffle: the C2 MapReduce kNN with the combiner off, on the
// database of the repository's BenchmarkC2CombinerEffect with a fifth of
// its queries, so that an op takes a few milliseconds: every (query,
// point) candidate crosses the Alltoall shuffle.
const (
	c2Ranks   = 4
	c2DB      = 2000
	c2Queries = 10
	c2K       = 15
)

type knnShuffle struct {
	db      *dataio.Dataset
	queries [][]float64
	want    []int // knn.SequentialHeap's predictions
	world   *cluster.World
}

func openKNNShuffle(cfg config) (runner, error) {
	db, q := dataio.GaussianMixture(cfg.seed, c2DB+c2Queries, 8, 4, 4.0).Split(c2DB)
	return &knnShuffle{db: db, queries: q.Points, want: knn.SequentialHeap(db, q.Points, c2K)}, nil
}

func (k *knnShuffle) up() (err error) {
	k.world, err = worldUp(c2Ranks)
	return err
}

func (k *knnShuffle) batch(n int, t *tally) (time.Duration, error) {
	var wall time.Duration
	for i := 0; i < n; i++ {
		var pred []int
		wall += libraryOp(k.world, t, func() (err error) {
			pred, err = knn.MapReduce(k.world, k.db, k.queries, c2K, false)
			return err
		}, func() bool { return slices.Equal(pred, k.want) })
	}
	return wall, nil
}

func (k *knnShuffle) layers(p, tr *tally) map[string]float64 {
	phase := func(op string) float64 { return tr.per("obs."+op+".wall_ns") / c2Ranks / 1e6 }
	return map[string]float64{
		"mr.map_ms_per_op":        phase("mr.map"),
		"mr.collate_ms_per_op":    phase("mr.collate"),
		"mr.reduce_ms_per_op":     phase("mr.reduce"),
		"mr.shuffle_bytes_per_op": p.per("bytes"),
	}
}

func (k *knnShuffle) close() {}

// coll-p4: many small latency-bound collectives on four goroutine ranks.
// Every payload is a 2 KiB vector of small integers, so sums are exact
// in any order and each rank can check every result against values
// computed here.
const (
	collRanks    = 4
	collLen      = 256 // float64s: 2 KiB
	collVariants = 4   // ops cycle through these inputs, so a stale result shows
)

// collOps names the collectives of one op, in call order.
var collOps = []string{"Barrier", "Bcast", "Allreduce", "Alltoall", "Gather", "Scan"}

type collInput struct {
	bcast  []float64                       // rank 0's Bcast payload
	red    [collRanks][]float64            // Allreduce contributions
	sum    []float64                       // their elementwise sum
	a2a    [collRanks][collRanks][]float64 // a2a[src][dst]
	gather [collRanks][]float64
	scan   [collRanks]int64
	prefix [collRanks]int64 // inclusive prefix sums of scan
}

type collP4 struct {
	in    [collVariants]collInput
	world *cluster.World
}

func openCollP4(cfg config) (runner, error) {
	r := prng.New(cfg.seed)
	vec := func() []float64 {
		v := make([]float64, collLen)
		for i := range v {
			v[i] = float64(r.Intn(1000))
		}
		return v
	}
	cp := &collP4{}
	for i := range cp.in {
		in := &cp.in[i]
		in.bcast = vec()
		in.sum = make([]float64, collLen)
		var acc int64
		for rk := 0; rk < collRanks; rk++ {
			in.red[rk] = vec()
			cluster.SumFloat64s(in.sum, in.red[rk])
			for d := range in.a2a[rk] {
				in.a2a[rk][d] = vec()
			}
			in.gather[rk] = vec()
			in.scan[rk] = int64(r.Intn(1000))
			acc += in.scan[rk]
			in.prefix[rk] = acc
		}
	}
	return cp, nil
}

func (cp *collP4) up() (err error) {
	cp.world, err = worldUp(collRanks)
	return err
}

func (cp *collP4) batch(n int, t *tally) (time.Duration, error) {
	lat := make([]time.Duration, n)
	calls := make([][]time.Duration, len(collOps)) // rank 0's per-call walls
	var bad [collRanks][]bool
	for r := range bad {
		bad[r] = make([]bool, n)
	}
	var tr *obs.Trace
	if t.traced {
		tr = cp.world.Observe()
	}
	cp.world.ResetStats()
	start := time.Now()
	err := cp.world.Run(func(c *cluster.Comm) {
		rk := c.Rank()
		var stamp [7]time.Time
		for i := 0; i < n; i++ {
			in := &cp.in[i%collVariants]
			var root []float64
			if rk == 0 {
				root = in.bcast
			}
			stamp[0] = time.Now()
			c.Barrier()
			stamp[1] = time.Now()
			b := cluster.Bcast(c, 0, root)
			stamp[2] = time.Now()
			s := cluster.Allreduce(c, in.red[rk], cluster.SumFloat64s)
			stamp[3] = time.Now()
			x := cluster.Alltoall(c, in.a2a[rk][:])
			stamp[4] = time.Now()
			g := cluster.Gather(c, 0, in.gather[rk])
			stamp[5] = time.Now()
			p := cluster.Scan(c, in.scan[rk], func(a, b int64) int64 { return a + b })
			stamp[6] = time.Now()
			bad[rk][i] = !in.check(rk, b, s, x, g, p)
			if rk == 0 {
				lat[i] = stamp[6].Sub(stamp[0])
				for j := range collOps {
					calls[j] = append(calls[j], stamp[j+1].Sub(stamp[j]))
				}
			}
		}
	})
	wall := time.Since(start)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: coll-p4:", err)
		t.fail(n)
		return wall, nil
	}
	for i := range lat {
		ok := true
		for r := range bad {
			ok = ok && !bad[r][i]
		}
		t.op(lat[i], ok)
	}
	for j, op := range collOps {
		for _, d := range calls[j] {
			t.time(op, d)
		}
	}
	t.add("msgs", float64(cp.world.TotalMessages()))
	t.add("bytes", float64(cp.world.TotalBytes()))
	t.addSim(cp.world.SimTime(), n)
	if tr != nil {
		t.addObs(tr.Metrics(), n)
	}
	return wall, nil
}

// check compares rank rk's results of one op with the expected values.
func (in *collInput) check(rk int, bcast, sum []float64, a2a, gather [][]float64, prefix int64) bool {
	ok := slices.Equal(bcast, in.bcast) && slices.Equal(sum, in.sum) && prefix == in.prefix[rk]
	for src := range a2a {
		ok = ok && slices.Equal(a2a[src], in.a2a[src][rk])
	}
	if rk == 0 {
		for src := range gather {
			ok = ok && slices.Equal(gather[src], in.gather[src])
		}
	}
	return ok
}

func (cp *collP4) layers(p, tr *tally) map[string]float64 {
	v := map[string]float64{}
	for _, op := range collOps {
		v["cluster."+op+".wall_p50_us"] = quietest(p.timers[op], false)
	}
	return v
}

func (cp *collP4) close() {}

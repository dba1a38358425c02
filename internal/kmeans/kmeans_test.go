package kmeans

import (
	"math"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dataio"
	"repro/internal/linalg"
)

func blobs(seed uint64, n, dim, k int) *dataio.Dataset {
	return dataio.GaussianMixture(seed, n, dim, k, 1.5)
}

func TestSequentialRecoversClusters(t *testing.T) {
	ds := blobs(1, 900, 2, 3)
	res := Run(ds.Points, Options{K: 3, Seed: 5})
	if !res.Converged {
		t.Error("did not converge")
	}
	// Every recovered centroid must sit close to one true cluster mean:
	// compute per-label means and match.
	trueMeans := labelMeans(ds)
	for _, cent := range res.Centroids {
		best := math.Inf(1)
		for _, m := range trueMeans {
			if d := linalg.SqDist(cent, m); d < best {
				best = d
			}
		}
		if best > 1.0 {
			t.Errorf("centroid %v far from any true mean (d2=%v)", cent, best)
		}
	}
}

func labelMeans(ds *dataio.Dataset) [][]float64 {
	sums := make([][]float64, ds.Classes)
	counts := make([]int, ds.Classes)
	for i := range sums {
		sums[i] = make([]float64, ds.Dim)
	}
	for i, p := range ds.Points {
		l := ds.Labels[i]
		counts[l]++
		for d, v := range p {
			sums[l][d] += v
		}
	}
	for l := range sums {
		for d := range sums[l] {
			sums[l][d] /= float64(counts[l])
		}
	}
	return sums
}

func TestAllStrategiesAgree(t *testing.T) {
	ds := blobs(2, 1200, 3, 4)
	base := Run(ds.Points, Options{K: 4, Seed: 7, Strategy: Sequential})
	baseW := base.WCSS(ds.Points)
	for _, s := range []Strategy{Critical, Atomic, Reduction} {
		res := Run(ds.Points, Options{K: 4, Seed: 7, Strategy: s, Workers: 4})
		w := res.WCSS(ds.Points)
		if math.Abs(w-baseW)/baseW > 1e-6 {
			t.Errorf("strategy %v WCSS %v vs sequential %v", s, w, baseW)
		}
		if res.Iterations == 0 || !res.Converged {
			t.Errorf("strategy %v did not converge", s)
		}
	}
}

func TestChangesMonotoneTrend(t *testing.T) {
	// Cluster changes must hit zero (or MinChanges) at convergence.
	ds := blobs(3, 600, 2, 3)
	res := Run(ds.Points, Options{K: 3, Seed: 11})
	last := res.ChangesPerIter[len(res.ChangesPerIter)-1]
	if res.Converged && last > 0 {
		// Converged via MaxMove; acceptable, but changes should be tiny.
		if last > 10 {
			t.Errorf("converged with %d changes in final iteration", last)
		}
	}
	if res.ChangesPerIter[0] != 600 {
		t.Errorf("first iteration should assign every point: %d", res.ChangesPerIter[0])
	}
}

func TestMinChangesThreshold(t *testing.T) {
	ds := blobs(4, 500, 2, 4)
	strict := Run(ds.Points, Options{K: 4, Seed: 13, MinChanges: 0})
	loose := Run(ds.Points, Options{K: 4, Seed: 13, MinChanges: 100})
	if loose.Iterations > strict.Iterations {
		t.Errorf("loose threshold ran longer: %d vs %d", loose.Iterations, strict.Iterations)
	}
}

func TestMaxIterCap(t *testing.T) {
	ds := blobs(5, 500, 2, 5)
	res := Run(ds.Points, Options{K: 5, Seed: 17, MaxIter: 1})
	if res.Iterations != 1 {
		t.Errorf("iterations %d", res.Iterations)
	}
	if res.Converged {
		// One iteration can converge only if no point changed, which is
		// impossible from the -1 initial assignment.
		t.Error("claimed convergence after 1 forced iteration")
	}
}

func TestKClampedToN(t *testing.T) {
	pts := [][]float64{{1, 1}, {2, 2}}
	res := Run(pts, Options{K: 10, Seed: 1})
	if len(res.Centroids) != 2 {
		t.Errorf("centroids %d", len(res.Centroids))
	}
}

func TestEmptyInput(t *testing.T) {
	res := Run(nil, Options{K: 3})
	if !res.Converged || res.Iterations != 0 {
		t.Error("empty input mishandled")
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	ds := blobs(6, 400, 2, 3)
	a := Run(ds.Points, Options{K: 3, Seed: 9})
	b := Run(ds.Points, Options{K: 3, Seed: 9})
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatal("same seed, different assignment")
		}
	}
}

// TestDistributedMatchesSequential holds RunDistributed to what the
// benchmark's oracle enforces: for every rank count, the sequential
// run's iterations, changes per iteration and assignment, element by
// element, and its WCSS within 1e-9.
func TestDistributedMatchesSequential(t *testing.T) {
	cases := []struct {
		name   string
		points [][]float64
		opts   Options
	}{
		{"blobs", blobs(7, 800, 3, 3).Points, Options{K: 3, Seed: 21}},
		{"kmeans-c4", dataio.GaussianMixture(1, 4000, 4, 8, 50).Points, Options{K: 8, MaxIter: 20, Seed: 1}},
		{"k16", dataio.GaussianMixture(2, 3000, 5, 16, 30).Points, Options{K: 16, MaxIter: 20, Seed: 2}},
	}
	for _, tc := range cases {
		seq := Run(tc.points, tc.opts)
		for _, p := range []int{1, 2, 4, 5} {
			dist, err := RunDistributed(cluster.NewWorld(p), tc.points, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(dist.WCSS(tc.points)-seq.WCSS(tc.points))/seq.WCSS(tc.points) > 1e-9 {
				t.Errorf("%s P=%d: WCSS %v vs %v", tc.name, p, dist.WCSS(tc.points), seq.WCSS(tc.points))
			}
			if dist.Iterations != seq.Iterations {
				t.Errorf("%s P=%d: iterations %d vs %d", tc.name, p, dist.Iterations, seq.Iterations)
			}
			if !slices.Equal(dist.ChangesPerIter, seq.ChangesPerIter) {
				t.Errorf("%s P=%d: changes per iteration %v vs %v", tc.name, p, dist.ChangesPerIter, seq.ChangesPerIter)
			}
			if len(dist.Assign) != len(seq.Assign) {
				t.Fatalf("%s P=%d: assignment length %d vs %d", tc.name, p, len(dist.Assign), len(seq.Assign))
			}
			for i, a := range dist.Assign {
				if a != seq.Assign[i] {
					t.Errorf("%s P=%d: point %d assigned to %d, sequential %d", tc.name, p, i, a, seq.Assign[i])
					break
				}
			}
		}
	}
}

func TestDistributedUsesAllreduceNotGatherPerIter(t *testing.T) {
	// Sanity on the communication pattern: bytes should scale with
	// K*dim per iteration, not with N.
	ds := blobs(8, 2000, 2, 3)
	world := cluster.NewWorld(4)
	res, err := RunDistributed(world, ds.Points, Options{K: 3, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	// Scatter ships ~N*dim*8 bytes once; per-iteration traffic is
	// K*(dim+1)+1 floats per Allreduce hop. Generous upper bound:
	scatterBytes := int64(2000 * 2 * 8 * 2)
	perIter := int64((3*(2+1)+1)*8) * int64(4*4) // buf * (hops per allreduce upper bound)
	gatherBytes := int64(2000 * 8 * 2)
	bound := scatterBytes + int64(res.Iterations)*perIter + gatherBytes + 4096
	if world.TotalBytes() > bound {
		t.Errorf("traffic %d exceeds expected bound %d", world.TotalBytes(), bound)
	}
}

func TestWCSSDecreasesOverIterations(t *testing.T) {
	// Run twice with iteration caps and verify the objective improves.
	ds := blobs(9, 700, 2, 4)
	short := Run(ds.Points, Options{K: 4, Seed: 31, MaxIter: 1})
	long := Run(ds.Points, Options{K: 4, Seed: 31, MaxIter: 50})
	if long.WCSS(ds.Points) > short.WCSS(ds.Points)+1e-9 {
		t.Errorf("more iterations made WCSS worse: %v vs %v",
			long.WCSS(ds.Points), short.WCSS(ds.Points))
	}
}

func TestStrategyNames(t *testing.T) {
	names := map[Strategy]string{Sequential: "sequential", Critical: "critical", Atomic: "atomic", Reduction: "reduction", Strategy(9): "unknown"}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%d -> %q", s, s.String())
		}
	}
}

func BenchmarkStrategies(b *testing.B) {
	ds := blobs(10, 20000, 4, 8)
	for _, s := range []Strategy{Sequential, Critical, Atomic, Reduction} {
		b.Run(s.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Run(ds.Points, Options{K: 8, Seed: 3, Strategy: s, MaxIter: 5})
			}
		})
	}
}

func TestPlusPlusInitProducesKDistinctCentroids(t *testing.T) {
	ds := blobs(11, 500, 3, 6)
	cents := initPlusPlus(ds.Points, 6, 3)
	if len(cents) != 6 {
		t.Fatalf("centroids %d", len(cents))
	}
	for i := 0; i < len(cents); i++ {
		for j := i + 1; j < len(cents); j++ {
			if linalg.SqDist(cents[i], cents[j]) == 0 {
				t.Errorf("centroids %d and %d identical", i, j)
			}
		}
	}
}

func TestPlusPlusDegenerateData(t *testing.T) {
	// All points identical: the uniform fallback must still return K
	// centroids without dividing by zero.
	pts := make([][]float64, 20)
	for i := range pts {
		pts[i] = []float64{1, 1}
	}
	cents := initPlusPlus(pts, 3, 1)
	if len(cents) != 3 {
		t.Fatalf("degenerate centroids %d", len(cents))
	}
}

func TestPlusPlusConvergesAtLeastAsWell(t *testing.T) {
	// Across several seeds, kmeans++ should on average need no more
	// iterations and reach no worse WCSS than random init.
	ds := blobs(12, 2000, 2, 8)
	var itRand, itPP, wRand, wPP float64
	const trials = 5
	for seed := uint64(0); seed < trials; seed++ {
		r := Run(ds.Points, Options{K: 8, Seed: seed, Init: RandomInit})
		p := Run(ds.Points, Options{K: 8, Seed: seed, Init: PlusPlusInit})
		itRand += float64(r.Iterations) / trials
		itPP += float64(p.Iterations) / trials
		wRand += r.WCSS(ds.Points) / trials
		wPP += p.WCSS(ds.Points) / trials
	}
	if wPP > wRand*1.05 {
		t.Errorf("kmeans++ WCSS %.0f notably worse than random %.0f", wPP, wRand)
	}
	t.Logf("iterations: random %.1f vs ++ %.1f; WCSS: random %.0f vs ++ %.0f",
		itRand, itPP, wRand, wPP)
}

func TestInitNames(t *testing.T) {
	if RandomInit.String() != "random" || PlusPlusInit.String() != "kmeans++" {
		t.Error("init names")
	}
}

func TestDistributedPlusPlusMatchesLocal(t *testing.T) {
	ds := blobs(13, 600, 2, 4)
	seq := Run(ds.Points, Options{K: 4, Seed: 9, Init: PlusPlusInit})
	world := cluster.NewWorld(3)
	dist, err := RunDistributed(world, ds.Points, Options{K: 4, Seed: 9, Init: PlusPlusInit})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dist.WCSS(ds.Points)-seq.WCSS(ds.Points)) > 1e-9*seq.WCSS(ds.Points) {
		t.Error("distributed kmeans++ differs from sequential")
	}
}

func TestSweepKFindsTrueK(t *testing.T) {
	// 4 well-separated clusters: silhouette must peak at K=4.
	ds := blobs(21, 1200, 2, 4)
	results := SweepK(ds.Points, []int{2, 3, 4, 5, 6}, Options{Seed: 3}, 300)
	if len(results) != 5 {
		t.Fatalf("results %d", len(results))
	}
	best := BestKBySilhouette(results)
	if best.K != 4 {
		for _, r := range results {
			t.Logf("K=%d WCSS=%.0f sil=%.3f", r.K, r.WCSS, r.Silhouette)
		}
		t.Errorf("silhouette picked K=%d, want 4", best.K)
	}
	// WCSS must decrease monotonically in K (elbow method premise).
	for i := 1; i < len(results); i++ {
		if results[i].WCSS > results[i-1].WCSS*1.02 {
			t.Errorf("WCSS not decreasing: K=%d %.0f after K=%d %.0f",
				results[i].K, results[i].WCSS, results[i-1].K, results[i-1].WCSS)
		}
	}
}

func TestMiniBatchApproachesFullKMeans(t *testing.T) {
	ds := blobs(31, 20000, 3, 6)
	exact := Run(ds.Points, Options{K: 6, Seed: 7, Init: PlusPlusInit})
	approx := MiniBatch(ds.Points, Options{K: 6, Seed: 7, Init: PlusPlusInit}, 256, 150)
	gap := QualityGap(ds.Points, approx, exact)
	if gap > 0.25 {
		t.Errorf("mini-batch WCSS gap %.3f exceeds 25%%", gap)
	}
	if len(approx.Assign) != ds.Len() {
		t.Error("final assignment incomplete")
	}
	t.Logf("mini-batch quality gap: %.4f", gap)
}

func TestMiniBatchDeterministic(t *testing.T) {
	ds := blobs(32, 2000, 2, 3)
	a := MiniBatch(ds.Points, Options{K: 3, Seed: 5}, 128, 50)
	b := MiniBatch(ds.Points, Options{K: 3, Seed: 5}, 128, 50)
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatal("same seed differs")
		}
	}
}

func TestMiniBatchEdgeCases(t *testing.T) {
	if !MiniBatch(nil, Options{K: 3}, 10, 10).Converged {
		t.Error("empty input")
	}
	pts := [][]float64{{1}, {2}, {3}}
	res := MiniBatch(pts, Options{K: 2, Seed: 1}, 100, 10) // batch > n clamps
	if len(res.Centroids) != 2 {
		t.Error("centroid count")
	}
}

func BenchmarkMiniBatchVsFull(b *testing.B) {
	ds := blobs(33, 50000, 4, 8)
	b.Run("Full5Iter", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Run(ds.Points, Options{K: 8, Seed: 3, MaxIter: 5})
		}
	})
	b.Run("MiniBatch150x256", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			MiniBatch(ds.Points, Options{K: 8, Seed: 3}, 256, 150)
		}
	})
}

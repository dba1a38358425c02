// Command kmeans runs the K-means clustering assignment (paper §3) with a
// chosen parallelisation strategy, or distributed over simulated ranks:
//
//	kmeans -n 200000 -d 4 -k 16 -strategy reduction
//	kmeans -distributed -ranks 8
//	kmeans -in points.csv -k 5 -strategy atomic
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/dataio"
	"repro/internal/kmeans"
	"repro/internal/obs"
)

func main() {
	n := flag.Int("n", 100000, "points (synthetic mode)")
	d := flag.Int("d", 4, "dimensions (synthetic mode)")
	k := flag.Int("k", 8, "clusters")
	seed := flag.Uint64("seed", 1, "seed for data and initial centroids")
	maxIter := flag.Int("maxiter", 100, "iteration cap")
	minChanges := flag.Int("minchanges", 0, "stop when changes <= this")
	strategy := flag.String("strategy", "reduction", "sequential | critical | atomic | reduction")
	workers := flag.Int("workers", 0, "workers (0 = all cores)")
	distributed := flag.Bool("distributed", false, "run on simulated cluster ranks")
	ranks := flag.Int("ranks", 4, "ranks when -distributed")
	inPath := flag.String("in", "", "CSV input (cols: x1..xd,label); overrides synthetic")
	obsCLI := obs.BindCLI()
	flag.Parse()

	strat, ok := map[string]kmeans.Strategy{
		"sequential": kmeans.Sequential,
		"critical":   kmeans.Critical,
		"atomic":     kmeans.Atomic,
		"reduction":  kmeans.Reduction,
	}[*strategy]
	if !ok {
		fmt.Fprintf(os.Stderr, "kmeans: unknown -strategy %q (want sequential, critical, atomic or reduction)\n", *strategy)
		os.Exit(2)
	}

	var points [][]float64
	if *inPath != "" {
		ds, err := dataio.LoadCSV(*inPath)
		if err != nil {
			fatal(err)
		}
		points = ds.Points
	} else {
		points = dataio.GaussianMixture(*seed, *n, *d, *k, 3.0).Points
	}

	opts := kmeans.Options{
		K: *k, Seed: *seed, MaxIter: *maxIter, MinChanges: *minChanges,
		Workers: *workers, Strategy: strat,
	}

	start := time.Now()
	var trace *obs.Trace
	var res *kmeans.Result
	lead := true // the process that prints the once-per-world result
	if *distributed {
		// In-process world of -ranks goroutines, or — when spawned by
		// `peachy launch` — this process's single rank of a multi-process
		// world on the net device.
		world, err := cluster.OpenWorld(*ranks, cluster.DefaultOptions())
		if err != nil {
			fatal(err)
		}
		defer world.Close()
		lead = world.Lead()
		if obsCLI.Enabled() {
			trace = world.Observe()
		}
		srv, err := obsCLI.Serve(trace, world.ObsInfo())
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		res, err = kmeans.RunDistributed(world, points, opts)
		if err != nil {
			fatal(err)
		}
		scope := ""
		if world.Launched() {
			scope = fmt.Sprintf(" (rank %d of %d)", world.LocalRank(), world.Size())
		}
		fmt.Printf("cluster%s: %d messages, %d bytes, simulated time %.2g s\n",
			scope, world.TotalMessages(), world.TotalBytes(), world.SimTime())
	} else {
		var rec *obs.Recorder
		if obsCLI.Enabled() {
			trace = obs.NewTrace(1)
			rec = trace.Rank(0)
		}
		srv, err := obsCLI.Serve(trace, obs.ServerInfo{Rank: -1, World: 1, Device: "local"})
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		wall := rec.Now()
		res = kmeans.Run(points, opts)
		rec.WallSpan("kmeans."+*strategy, wall,
			obs.KV{K: "points", V: int64(len(points))}, obs.KV{K: "iterations", V: int64(res.Iterations)})
	}
	elapsed := time.Since(start)
	if err := obsCLI.Emit(trace); err != nil {
		fatal(err)
	}

	// Only the lead process reports the global result: in a launched
	// world the gathered assignment (and so WCSS) exists on rank 0 only,
	// and the numbers are identical to an in-process run anyway.
	if lead {
		fmt.Printf("n=%d d=%d K=%d strategy=%s: %.3fs, %d iterations (converged=%v), WCSS=%.2f\n",
			len(points), len(points[0]), *k, *strategy,
			elapsed.Seconds(), res.Iterations, res.Converged, res.WCSS(points))
		if len(res.ChangesPerIter) > 0 {
			fmt.Printf("cluster changes per iteration: %v\n", res.ChangesPerIter)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "kmeans:", err)
	os.Exit(1)
}
